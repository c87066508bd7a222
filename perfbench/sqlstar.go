package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	hpbdc "repro"
	"repro/internal/check"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/shuffle"
	"repro/internal/table"
)

// starSizes sizes one sql-star round: the GenStar relation sizes and
// the shuffle fan-out the planner uses.
type starSizes struct {
	fact, cust, prod, dates, parts int
}

var sqlSizes = starSizes{fact: 6000, cust: 120, prod: 40, dates: 48, parts: 4}

// sqlStar runs the 8 star queries per round on a fresh engine over a
// freshly generated star schema. Every round uses the same seed, so
// every round's answers must equal round 0's, which the reference
// interpreter verifies.
type sqlStar struct {
	seed  uint64
	size  starSizes
	suite []query.StarQuery

	ctx   *hpbdc.Context
	env   *query.Env
	rels  []query.Relation
	plans []*query.Plan
	rows  [][]table.Row
	errs  []error

	sums []uint64 // round 0's per-query result checksums
}

func newSQLStar(seed uint64, size starSizes) *sqlStar {
	return &sqlStar{seed: seed, size: size, suite: query.StarQueries()}
}

func (w *sqlStar) setup(int) error {
	w.ctx = hpbdc.New(hpbdc.Config{Seed: w.seed})
	w.env = query.NewEnv(w.ctx.Engine(), nil)
	w.rels = query.GenStar(w.seed, w.size.fact, w.size.cust, w.size.prod, w.size.dates)
	w.plans = make([]*query.Plan, len(w.suite))
	w.rows = make([][]table.Row, len(w.suite))
	w.errs = make([]error, len(w.suite))
	return query.RegisterStar(w.env, w.rels, w.size.parts)
}

func (w *sqlStar) tail() float64 { return 0.9 }

func (w *sqlStar) measure(m *meter) {
	opts := query.Options{Optimize: true, Parts: w.size.parts}
	for i, q := range w.suite {
		t0 := time.Now()
		plan, err := w.env.SQL(q.SQL, opts)
		d := m.call("query.sql", t0)
		if err == nil {
			t1 := time.Now()
			w.rows[i], err = plan.Execute()
			d += m.call("query.execute", t1)
			w.plans[i] = plan
		}
		w.errs[i] = err
		m.op(err == nil)
		m.sample(d, 1)
	}
}

func (w *sqlStar) check(round int) error {
	sums := make([]uint64, len(w.suite))
	for i, q := range w.suite {
		if w.errs[i] != nil {
			return fmt.Errorf("%s: %w", q.ID, w.errs[i])
		}
		if round == 0 {
			if d := check.DiffQueryEnv(q.ID, w.rows[i], w.plans[i].Logical, w.env); !d.OK {
				return fmt.Errorf("%s", d)
			}
		}
		sums[i] = rowsChecksum(w.rows[i], w.plans[i].Ordered())
	}
	if round == 0 {
		w.sums = sums
		return nil
	}
	for i, q := range w.suite {
		if sums[i] != w.sums[i] {
			return fmt.Errorf("%s: result checksum %x differs from round 0's %x", q.ID, sums[i], w.sums[i])
		}
	}
	return nil
}

// rowsChecksum folds a result; unordered results are multisets, so
// their encoded rows are sorted first.
func rowsChecksum(rows []table.Row, ordered bool) uint64 {
	enc := make([]string, len(rows))
	for i, r := range rows {
		enc[i] = check.FormatRow(r)
	}
	if !ordered {
		sort.Strings(enc)
	}
	h := fnv.New64a()
	for _, e := range enc {
		h.Write([]byte(e))
		h.Write([]byte{';'})
	}
	return h.Sum64()
}

func (w *sqlStar) checksum() uint64 {
	h := fnv.New64a()
	for _, s := range w.sums {
		binary.Write(h, binary.LittleEndian, s)
	}
	return h.Sum64()
}

func (w *sqlStar) counts() map[string]float64 {
	reg := w.ctx.Metrics()
	out := engineCounts(reg)
	out["table.rows_scanned"] = float64(reg.Counter(table.CtrRowsScanned).Value())
	out["table.rows_pruned"] = float64(reg.Counter(table.CtrRowsPruned).Value())
	out["table.bytes_decoded"] = float64(reg.Counter(table.CtrBytesDecoded).Value())
	out["table.bytes_skipped"] = float64(reg.Counter(table.CtrBytesSkipped).Value())
	return out
}

// engineCounts reads the dataflow engine's core, shuffle and network
// counters from its registry.
func engineCounts(reg *metrics.Registry) map[string]float64 {
	c := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	out := map[string]float64{
		"core.tasks_launched":     c("tasks_launched"),
		"core.stages_run":         c("stages_run"),
		"core.task_retries":       c("task_retries"),
		"core.task_ms_p50":        float64(reg.Histogram("task_duration_ns").Quantile(0.5)) / 1e6,
		"shuffle.records_written": c("shuffle_records_written"),
		"shuffle.raw_bytes":       c("shuffle_raw_bytes"),
		"shuffle.wire_bytes":      c("shuffle_wire_bytes"),
		"shuffle.bytes_fetched":   c("shuffle_bytes_fetched"),
		"shuffle.spills":          c("shuffle_spills"),
	}
	if raw := c("shuffle_raw_bytes"); raw > 0 {
		out["compress.ratio"] = c("shuffle_wire_bytes") / raw
	}
	if q := c("net_cost_queries"); q > 0 {
		out["netsim.fetch_sim_ns_mean"] = c("net_cost_time_ns") / q
	}
	return out
}

// replay times the hash-shuffle writer on the fact rows keyed by
// customer, one writer per fact partition, and a grouped aggregation of the fact table on the round's
// engine.
func (w *sqlStar) replay(m *meter) (map[string]float64, error) {
	var fact query.Relation
	for _, r := range w.rels {
		if r.Name == "sales" {
			fact = r
		}
	}
	chunks := make([][]record, w.size.parts)
	for i, r := range fact.Rows {
		c := i * w.size.parts / len(fact.Rows)
		chunks[c] = append(chunks[c], record{
			key: binary.LittleEndian.AppendUint64(nil, uint64(r[0].(int64))),
			val: []byte(check.FormatRow(r)),
		})
	}
	out := map[string]float64{}
	var err error
	out["shuffle.hash_write_ns_per_rec"], err = replayWriter(m, "replay.hash_writer", shuffle.NewHashWriter,
		shuffle.Config{Partitions: w.size.parts}, chunks)
	if err != nil {
		return nil, err
	}
	var samples []time.Duration
	for i := 0; i < replayReps; i++ {
		t, err := table.FromSlice(w.ctx.Engine(), fact.Schema, fact.Rows, w.size.parts)
		if err != nil {
			return nil, err
		}
		root := m.spans.begin("replay")
		t0 := time.Now()
		agg, err := t.GroupBy("cust_id").Agg(w.size.parts, table.Agg{Op: table.Sum, Col: "amount"})
		if err == nil {
			_, err = agg.Collect()
		}
		samples = append(samples, m.call("replay.group_agg", t0))
		m.spans.end(root)
		if err != nil {
			return nil, err
		}
	}
	out["table.agg_ns_per_row"] = float64(median(samples)) / float64(len(fact.Rows))
	return out, nil
}

// replayReps is how many times each replay runs; the median is reported.
const replayReps = 5

// record is one replayed shuffle record.
type record struct{ key, val []byte }

// replayWriter writes each chunk of records through its own shuffle
// writer and closes it, as each map task does, replayReps times, and
// returns the median ns per record.
func replayWriter(m *meter, name string, mk func(shuffle.Config) (shuffle.Writer, error), cfg shuffle.Config, chunks [][]record) (float64, error) {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	var samples []time.Duration
	for i := 0; i < replayReps; i++ {
		root := m.spans.begin("replay")
		t0 := time.Now()
		err := writeChunks(mk, cfg, chunks)
		samples = append(samples, m.call(name, t0))
		m.spans.end(root)
		if err != nil {
			return 0, err
		}
	}
	return float64(median(samples)) / float64(n), nil
}

func writeChunks(mk func(shuffle.Config) (shuffle.Writer, error), cfg shuffle.Config, chunks [][]record) error {
	for _, c := range chunks {
		wr, err := mk(cfg)
		if err != nil {
			return err
		}
		for _, r := range c {
			if err := wr.Write(r.key, r.val); err != nil {
				return err
			}
		}
		if _, _, err := wr.Close(); err != nil {
			return err
		}
	}
	return nil
}
