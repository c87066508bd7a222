package main

import (
	"fmt"
	"hash/fnv"
	"time"

	hpbdc "repro"
	"repro/internal/shuffle"
	"repro/internal/workload"
)

// sortSizes sizes one terasort round: records per round, the sort's
// output partitions and the sampled keys per input partition.
type sortSizes struct {
	records, parts, sample int
}

var teraSizes = sortSizes{records: 40_000, parts: 8, sample: 128}

// terasort sorts the same TeraGen records every round on a fresh
// context. Each round checks the record count, the global order, that
// the output is a permutation of the input, and that the partition
// boundaries equal round 0's.
type terasort struct {
	seed uint64
	size sortSizes

	ctx    *hpbdc.Context
	input  [][]hpbdc.Pair[string, string]
	inSum  uint64
	output [][]hpbdc.Pair[string, string]
	err    error

	bounds uint64 // round 0's partition-boundary checksum
}

func newTerasort(seed uint64, size sortSizes) *terasort {
	return &terasort{seed: seed, size: size}
}

func (w *terasort) setup(int) error {
	per := w.size.records / w.size.parts
	w.input = make([][]hpbdc.Pair[string, string], w.size.parts)
	for p := range w.input {
		recs := workload.TeraGen(per, w.seed+uint64(p)*7_919)
		w.input[p] = make([]hpbdc.Pair[string, string], len(recs))
		for i, r := range recs {
			w.input[p][i] = hpbdc.Pair[string, string]{Key: string(r.Key), Value: string(r.Value)}
		}
	}
	w.inSum = multisetSum(w.input)
	w.ctx = hpbdc.New(hpbdc.Config{Seed: w.seed})
	return nil
}

func (w *terasort) tail() float64 { return 0.9 }

func (w *terasort) measure(m *meter) {
	input := w.input
	ds := hpbdc.SourceFunc(w.ctx, len(input), func(p int) []hpbdc.Pair[string, string] { return input[p] })
	t0 := time.Now()
	sorted, err := hpbdc.SortByKey(ds, hpbdc.StringCodec, hpbdc.StringCodec, w.size.parts, w.size.sample)
	d := m.call("core.sort_by_key", t0)
	w.output = nil
	if err == nil {
		t1 := time.Now()
		w.output, err = sorted.CollectPartitions()
		d += m.call("core.collect_partitions", t1)
	}
	w.err = err
	m.op(err == nil)
	m.sample(d, int64(w.size.records))
}

func (w *terasort) check(round int) error {
	if w.err != nil {
		return w.err
	}
	n := 0
	prev := ""
	b := fnv.New64a()
	for _, part := range w.output {
		if len(part) > 0 {
			fmt.Fprintf(b, "%x|%x;", part[0].Key, part[len(part)-1].Key)
		}
		for _, p := range part {
			if p.Key < prev {
				return fmt.Errorf("output not sorted at record %d", n)
			}
			prev = p.Key
			n++
		}
	}
	want := len(w.input) * (w.size.records / w.size.parts)
	if n != want {
		return fmt.Errorf("output has %d records, input %d", n, want)
	}
	if got := multisetSum(w.output); got != w.inSum {
		return fmt.Errorf("output records differ from input (multiset sum %x, want %x)", got, w.inSum)
	}
	if round == 0 {
		w.bounds = b.Sum64()
	} else if b.Sum64() != w.bounds {
		return fmt.Errorf("partition boundaries %x differ from round 0's %x", b.Sum64(), w.bounds)
	}
	return nil
}

// multisetSum is an order-independent fold of every record, so equal
// sums mean (with high probability) the same records in any order.
func multisetSum(parts [][]hpbdc.Pair[string, string]) uint64 {
	var sum uint64
	for _, part := range parts {
		for _, p := range part {
			h := fnv.New64a()
			h.Write([]byte(p.Key))
			h.Write([]byte{0})
			h.Write([]byte(p.Value))
			sum += h.Sum64()
		}
	}
	return sum
}

func (w *terasort) checksum() uint64 { return w.bounds ^ w.inSum }

func (w *terasort) counts() map[string]float64 { return engineCounts(w.ctx.Metrics()) }

// replay times the sort-shuffle writer, one per input partition, and the
// range partitioner on the round's records, partitioned at TeraGen's
// even key-space splits.
func (w *terasort) replay(m *meter) (map[string]float64, error) {
	var keys [][]byte
	chunks := make([][]record, len(w.input))
	for i, part := range w.input {
		for _, p := range part {
			keys = append(keys, []byte(p.Key))
			chunks[i] = append(chunks[i], record{key: []byte(p.Key), val: []byte(p.Value)})
		}
	}
	rp := shuffle.NewRangePartitioner(workload.TeraSplits(w.size.parts))
	out := map[string]float64{}
	var err error
	out["shuffle.sort_write_ns_per_rec"], err = replayWriter(m, "replay.sort_writer", shuffle.NewSortWriter,
		shuffle.Config{Partitions: rp.Partitions(), Partitioner: rp.Partition}, chunks)
	if err != nil {
		return nil, err
	}
	var samples []time.Duration
	for i := 0; i < replayReps; i++ {
		root := m.spans.begin("replay")
		t0 := time.Now()
		for _, k := range keys {
			partitionSink += rp.Partition(k)
		}
		samples = append(samples, m.call("replay.range_partition", t0))
		m.spans.end(root)
	}
	out["shuffle.partition_ns_per_key"] = float64(median(samples)) / float64(len(keys))
	return out, nil
}

// partitionSink keeps the partitioner replay's results live.
var partitionSink int
