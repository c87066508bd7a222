package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/kvstore"
	"repro/internal/rng"
	"repro/internal/workload"
)

// kvSizes sizes one kv-txn round. Throughput falls as a store's Raft
// state grows, so every round runs a fixed op count on a fresh store.
type kvSizes struct {
	ops, keys, valueSize, txnEvery, txnSpan, txnValueSize int
	skew, readFrac                                        float64
}

var kvTxnSizes = kvSizes{ops: 20_000, keys: 1024, valueSize: 128, txnEvery: 10, txnSpan: 2, txnValueSize: 32, skew: 0.99, readFrac: 0.8}

// kvResult is one call's outcome, kept for the model check.
type kvResult struct {
	val   []byte
	found bool
	reads map[string][]byte
	err   error
}

// kvTxn is a single closed-loop client against kvstore.Sharded: a zipf
// Get/Put mix with one Txn after every txnEvery ops. The check replays
// the calls against a model map, so every Get and every Txn read must
// return the last acknowledged write.
type kvTxn struct {
	seed uint64
	size kvSizes

	store   *kvstore.Sharded
	preload map[string][]byte
	ops     []workload.Op
	txns    []workload.TxnOp
	opRes   []kvResult
	txnRes  []kvResult

	cost       time.Duration // virtual cost of the measured calls
	firstTenth float64       // calls/s over the round's first tenth of ops
	lastTenth  float64       // calls/s over its last tenth
	sum        uint64        // round 0's read checksum
}

func newKVTxn(seed uint64, size kvSizes) *kvTxn {
	return &kvTxn{seed: seed, size: size}
}

func kvKey(i int) string { return fmt.Sprintf("key-%08d", i) }

func (w *kvTxn) setup(int) error {
	w.store = kvstore.NewSharded(kvstore.ShardedConfig{
		Seed: w.seed, Groups: 2, InitialSplits: []string{kvKey(256), kvKey(512)},
	})
	gen := rng.New(w.seed ^ 0x5bd1e995)
	w.preload = make(map[string][]byte, w.size.keys)
	ctx := context.Background()
	for i := 0; i < w.size.keys; i++ {
		v := make([]byte, w.size.valueSize)
		gen.Bytes(v)
		if err := w.store.Put(ctx, kvKey(i), v); err != nil {
			return fmt.Errorf("preload %s: %w", kvKey(i), err)
		}
		w.preload[kvKey(i)] = v
	}
	w.ops = workload.KVOps(w.size.ops, w.size.keys, w.size.skew, w.size.readFrac, w.size.valueSize, w.seed)
	w.txns = workload.TxnOps(workload.TxnSpec{
		N: w.size.ops / w.size.txnEvery, Keys: w.size.keys, Span: w.size.txnSpan,
		Skew: w.size.skew, ValueSize: w.size.txnValueSize, Seed: w.seed ^ 0x9e3779b97f4a7c15,
	})
	w.opRes = make([]kvResult, len(w.ops))
	w.txnRes = make([]kvResult, len(w.txns))
	return nil
}

func (w *kvTxn) tail() float64 { return 0.999 }

func (w *kvTxn) measure(m *meter) {
	ctx := context.Background()
	cost0 := w.store.VirtualCost()
	tenth := len(w.ops) / 10
	start := time.Now()
	var lastFrom time.Time
	calls := 0
	for i, op := range w.ops {
		if i == len(w.ops)-tenth {
			lastFrom = time.Now()
			calls = 0
		}
		t0 := time.Now()
		var d time.Duration
		r := &w.opRes[i]
		if op.Kind == workload.OpGet {
			r.val, r.found, r.err = w.store.Get(ctx, op.Key)
			d = m.call("kvstore.get", t0)
		} else {
			r.err = w.store.Put(ctx, op.Key, op.Value)
			d = m.call("kvstore.put", t0)
		}
		m.op(r.err == nil)
		m.sample(d, 1)
		calls++
		if (i+1)%w.size.txnEvery == 0 {
			tx := w.txns[(i+1)/w.size.txnEvery-1]
			tr := &w.txnRes[(i+1)/w.size.txnEvery-1]
			t1 := time.Now()
			tr.reads, tr.err = w.store.Txn(ctx, tx.Reads, tx.Writes)
			m.op(tr.err == nil)
			m.sample(m.call("kvstore.txn", t1), 1)
			calls++
		}
		if i+1 == tenth {
			w.firstTenth = float64(calls) / time.Since(start).Seconds()
		}
	}
	w.lastTenth = float64(calls) / time.Since(lastFrom).Seconds()
	w.cost = w.store.VirtualCost() - cost0
}

// noEffect reports whether a failed Txn is guaranteed to have left the
// store unchanged.
func noEffect(err error) bool {
	return errors.Is(err, kvstore.ErrTxnConflict) || errors.Is(err, kvstore.ErrTxnAborted) ||
		errors.Is(err, kvstore.ErrDeadlineExceeded)
}

func (w *kvTxn) check(round int) error {
	model := make(map[string][]byte, len(w.preload))
	for k, v := range w.preload {
		model[k] = v
	}
	h := fnv.New64a()
	for i, op := range w.ops {
		r := w.opRes[i]
		switch {
		case r.err != nil:
			return fmt.Errorf("op %d on %s: %w", i, op.Key, r.err)
		case op.Kind == workload.OpPut:
			model[op.Key] = op.Value
		default:
			want, ok := model[op.Key]
			if r.found != ok || !bytes.Equal(r.val, want) {
				return fmt.Errorf("op %d: Get(%s) returned %x (found %v), last acknowledged write %x", i, op.Key, r.val, r.found, want)
			}
			h.Write(r.val)
		}
		if (i+1)%w.size.txnEvery != 0 {
			continue
		}
		j := (i+1)/w.size.txnEvery - 1
		tx, tr := w.txns[j], w.txnRes[j]
		if tr.err != nil {
			if noEffect(tr.err) {
				continue
			}
			return fmt.Errorf("txn %d: outcome unknown: %w", j, tr.err)
		}
		for _, k := range tx.Reads {
			got, found := tr.reads[k]
			want, ok := model[k]
			if found != ok || !bytes.Equal(got, want) {
				return fmt.Errorf("txn %d: read %s returned %x (found %v), last acknowledged write %x", j, k, got, found, want)
			}
			h.Write(got)
		}
		for k, v := range tx.Writes {
			model[k] = v
		}
	}
	if round == 0 {
		w.sum = h.Sum64()
	} else if h.Sum64() != w.sum {
		return fmt.Errorf("read checksum %x differs from round 0's %x", h.Sum64(), w.sum)
	}
	return nil
}

func (w *kvTxn) checksum() uint64 { return w.sum }

func (w *kvTxn) counts() map[string]float64 {
	c := func(name string) float64 { return float64(w.store.Reg.Counter(name).Value()) }
	calls := len(w.ops) + len(w.txns)
	return map[string]float64{
		"kvstore.lock_retries":          c("sharded_lock_retries"),
		"kvstore.moved_retries":         c("sharded_moved_retries"),
		"kvstore.txn_committed":         c("txn_committed"),
		"kvstore.txn_conflicts":         c("txn_conflicts"),
		"kvstore.txn_retries":           c("txn_retries"),
		"kvstore.ops_per_s_first_tenth": w.firstTenth,
		"kvstore.ops_per_s_last_tenth":  w.lastTenth,
		"kvstore.sim_us_per_op":         float64(w.cost) / float64(time.Microsecond) / float64(calls),
		"consensus.proposals":           c("ha_proposals"),
		"consensus.redirects":           c("ha_redirects"),
		"consensus.failovers":           c("ha_failovers"),
	}
}

// replay has nothing to replay: every kvstore call is already a span.
func (w *kvTxn) replay(*meter) (map[string]float64, error) { return nil, nil }
