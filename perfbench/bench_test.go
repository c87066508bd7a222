package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	hpbdc "repro"
)

// Small sizes keep the tests fast; the workloads' code paths are the
// benchmark's own.
func small(name string, seed uint64) bench {
	switch name {
	case "sql-star":
		return newSQLStar(seed, starSizes{fact: 600, cust: 30, prod: 10, dates: 12, parts: 4})
	case "terasort":
		return newTerasort(seed, sortSizes{records: 4000, parts: 8, sample: 32})
	case "stream-window":
		return newStreamWindow(seed, windowSizes{events: 5000, keys: 16})
	case "kv-txn":
		s := kvTxnSizes
		s.ops, s.keys = 1000, 128
		return newKVTxn(seed, s)
	}
	panic("unknown workload " + name)
}

var names = []string{"sql-star", "terasort", "stream-window", "kv-txn"}

// round runs one round and its check.
func round(t *testing.T, w bench, r int) {
	t.Helper()
	if err := w.setup(r); err != nil {
		t.Fatalf("setup: %v", err)
	}
	m := &meter{}
	w.measure(m)
	if m.failed != 0 {
		t.Fatalf("%d of %d operations failed", m.failed, m.attempted)
	}
	if err := w.check(r); err != nil {
		t.Fatalf("check: %v", err)
	}
}

// deterministic are the counts that must repeat exactly for a seed.
var deterministic = []string{
	"table.rows_scanned", "table.rows_pruned", "table.bytes_decoded", "table.bytes_skipped",
	"shuffle.records_written", "shuffle.raw_bytes", "shuffle.wire_bytes", "shuffle.spills",
	"stream.checkpoint_bytes", "stream.checkpoints_committed", "stream.results", "stream.late_dropped",
	"kvstore.sim_us_per_op", "kvstore.txn_committed", "kvstore.txn_conflicts",
}

func TestSeedDeterminism(t *testing.T) {
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			run := func(seed uint64) (map[string]float64, uint64) {
				w := small(name, seed)
				round(t, w, 0)
				round(t, w, 1)
				return w.counts(), w.checksum()
			}
			a, sumA := run(3)
			b, sumB := run(3)
			for _, k := range deterministic {
				if a[k] != b[k] {
					t.Errorf("%s: %v then %v with the same seed", k, a[k], b[k])
				}
			}
			if sumA != sumB {
				t.Errorf("checksum %x then %x with the same seed", sumA, sumB)
			}
			if _, sumC := run(4); sumC == sumA {
				t.Errorf("checksum %x unchanged by another seed", sumC)
			}
		})
	}
}

// TestChecksCatchCorruption feeds each output check a corrupted result:
// in the warm-up round, checked against the reference, and in a later
// round, checked against the warm-up round.
func TestChecksCatchCorruption(t *testing.T) {
	corrupt := map[string][]struct {
		what string
		do   func(w bench)
	}{
		"sql-star": {
			{"changed value", func(w bench) {
				s := w.(*sqlStar)
				s.rows[1][0][1] = s.rows[1][0][1].(float64) + 0.25
			}},
			{"dropped row", func(w bench) { s := w.(*sqlStar); s.rows[0] = s.rows[0][1:] }},
		},
		"terasort": {
			{"swapped records", func(w bench) {
				p := w.(*terasort).output[3]
				p[0], p[1] = p[1], p[0]
			}},
			{"changed value", func(w bench) {
				p := w.(*terasort).output[2]
				p[5] = hpbdc.Pair[string, string]{Key: p[5].Key, Value: p[5].Value + "x"}
			}},
			{"dropped record", func(w bench) { s := w.(*terasort); s.output[1] = s.output[1][1:] }},
		},
		"stream-window": {
			{"changed sum", func(w bench) { w.(*streamWindow).results[7].Sum++ }},
			{"dropped pane", func(w bench) { s := w.(*streamWindow); s.results = s.results[1:] }},
		},
		"kv-txn": {
			{"lost write", func(w bench) {
				s := w.(*kvTxn)
				// The last Get of a key written during the round returns the
				// preloaded value, as if the acknowledged write were lost.
				written := map[string]bool{}
				last := -1
				for i, op := range s.ops {
					if op.Value != nil {
						written[op.Key] = true
					} else if written[op.Key] {
						last = i
					}
				}
				s.opRes[last].val = s.preload[s.ops[last].Key]
			}},
			{"stale txn read", func(w bench) {
				s := w.(*kvTxn)
				for k := range s.txnRes[len(s.txnRes)-1].reads {
					s.txnRes[len(s.txnRes)-1].reads[k] = []byte("stale")
				}
			}},
		},
	}
	for _, name := range names {
		for _, c := range corrupt[name] {
			t.Run(name+"/"+c.what, func(t *testing.T) {
				for _, r := range []int{0, 1} {
					w := small(name, 5)
					if r == 1 {
						round(t, w, 0)
					}
					if err := w.setup(r); err != nil {
						t.Fatal(err)
					}
					w.measure(&meter{})
					c.do(w)
					if err := w.check(r); err == nil {
						t.Errorf("round %d: check passed a corrupted result", r)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric names equal to
// the ones the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Error(err)
		}
	}
	if len(wl) != len(names) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", wl, names)
	}
	var got []string
	for _, m := range spec.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	var want []string
	for _, l := range perLayer() {
		want = append(want, l.name+" "+l.unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nbenchmark prints:\n%v", got, want)
	}
	got = got[:0]
	for _, m := range spec.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	want = []string{"latency_p50_ms ms", "latency_tail_ms ms", "peak_rss_mb MB", "setup_s s", "throughput_per_s 1/s"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("end_to_end in BENCHMARK.json %v, benchmark prints %v", got, want)
	}
}

// TestCPUShares profiles a short terasort round and checks that the
// attribution finds the engine's packages and sums to one.
func TestCPUShares(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	w := small("terasort", 1)
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		round(t, w, 0)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares(path)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range shares {
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v: %v", total, shares)
	}
	if shares["shuffle"] == 0 || shares["core"]+shares["hpbdc"] == 0 {
		t.Errorf("no samples attributed to the engine: %v", shares)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/table.newState", "repro/internal/core.(*Engine).run"}, "table"},
		{[]string{"sort.SliceStable", "repro/internal/shuffle.(*sortWriter).sortRun"}, "shuffle"},
		{[]string{"repro.SortByKey[...]", "main.(*terasort).measure"}, "hpbdc"},
		{[]string{"repro/internal/elastic.Plan"}, "internal"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"main.quantile", "main.main"}, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	if !outsideMeasure([]string{"repro/internal/query.GenStar", "main.(*sqlStar).setup", "main.runPhase"}) {
		t.Error("set-up counted as measured")
	}
	if outsideMeasure([]string{"repro/internal/query.(*Plan).Execute", "main.(*sqlStar).measure", "main.runPhase"}) {
		t.Error("measured call left out")
	}
}
