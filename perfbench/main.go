// Command perfbench is the repository benchmark. It drives four
// long-run workloads through the public API of the root hpbdc package
// and of internal/{query,stream,kvstore}, checks every output, and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object. Run it from the repository root through
// run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload terasort --seed 7 --seconds 20 --trace 0
//
// Workloads (one closed-loop client each, the process capped at nproc
// threads):
//
//	sql-star       rounds of the E-SQL star suite (8 queries) on a fresh engine
//	terasort       rounds of TeraGen + SortByKey + CollectPartitions
//	stream-window  replays of a drained generator stream through stream.Runner
//	kv-txn         zipf Get/Put mix plus one 2-key Txn per 10 ops on kvstore.Sharded
//
// A run is a warm-up round, checked but not measured, then measured
// rounds until --seconds of measured time have passed. Every workload
// reports the same end-to-end metrics; what a unit of work is differs:
//
//	metric            sql-star      terasort        stream-window    kv-txn
//	throughput_per_s  queries/s     records/s       events/s         calls/s (Get, Put, Txn)
//	latency_p50_ms    per query     per sort job    per replay pass  per call
//	latency_tail_ms   query p90     job p90         pass p90         call p99.9
//	setup_s           set-up of a round: input generation, engine or store build, preload
//	peak_rss_mb       resident-set high-water mark of a round (VmHWM)
//
// Throughput, set-up and peak RSS are medians over rounds; the
// latencies are quantiles over every measured call. Each tail quantile
// leaves at least ten samples beyond it in a run. kv-txn's p99 falls on
// the cliff between plain calls and the ~1% that pay for a Raft log
// compaction, so its tail is p99.9, inside the compaction population.
//
// With --trace 1 the run measures twice, first untraced and then with
// spans and the CPU profiler on, and prints the per-layer metrics
// instead: registry counts of each layer, per-call span timings, replays
// of single layers on the workload's own inputs, span self time, and CPU
// and allocation shares by package. Spans and profiles are written
// under --out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// bench is one benchmark workload. A run is a sequence of rounds; each
// round's inputs are a pure function of (seed, sizes), so a round's
// counts and round 0's checksum repeat exactly for a seed.
type bench interface {
	// setup builds the round's inputs and the system under test. It is
	// timed as set-up.
	setup(round int) error
	// measure makes the round's calls into the system, timing each
	// through m. Output checks do not run here.
	measure(m *meter)
	// check verifies the round's outputs outside the timed region.
	check(round int) error
	// counts returns the round's per-layer counts and timings read from
	// the program's registries.
	counts() map[string]float64
	// replay times single layers on the round's inputs (traced run).
	replay(m *meter) (map[string]float64, error)
	// checksum folds round 0's verified outputs.
	checksum() uint64
	// tail is the latency quantile reported as latency_tail_ms.
	tail() float64
}

// errCheck marks an output check failure, as opposed to a failure to
// run at all.
type errCheck struct{ err error }

func (e errCheck) Error() string { return "output check: " + e.err.Error() }
func (e errCheck) Unwrap() error { return e.err }

func newWorkload(name string, seed uint64) (bench, error) {
	switch name {
	case "sql-star":
		return newSQLStar(seed, sqlSizes), nil
	case "terasort":
		return newTerasort(seed, teraSizes), nil
	case "stream-window":
		return newStreamWindow(seed, streamSizes), nil
	case "kv-txn":
		return newKVTxn(seed, kvTxnSizes), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have sql-star, terasort, stream-window, kv-txn)", name)
}

// phase is one measured sequence of rounds.
type phase struct {
	m        meter
	busy     time.Duration // measured time
	setups   []time.Duration
	rates    []float64 // units of work per second, one per measured round
	peaks    []float64 // resident-set high-water mark of each measured round, MB
	counts   map[string]float64
	allocs   uint64 // bytes allocated inside measured regions
	gcCycles uint32 // GC cycles completed inside measured regions
}

// runPhase runs a warm-up round, whose calls are checked but not
// measured, then measured rounds until the measured time reaches
// budget, and at least minRounds of them.
func runPhase(w bench, budget time.Duration, minRounds int, spans *spanLog) (*phase, error) {
	p := &phase{m: meter{spans: spans}}
	var before, after runtime.MemStats
	for r := 0; r == 0 || p.busy < budget || len(p.rates) < minRounds; r++ {
		// Every round starts from a collected heap, so no round pays for
		// garbage an earlier one left and the heap's high-water mark
		// depends on a round's own work, not on where the GC cycle fell.
		runtime.GC()
		resetPeakRSS()
		t0 := time.Now()
		if err := w.setup(r); err != nil {
			return p, fmt.Errorf("round %d set-up: %w", r, err)
		}
		p.setups = append(p.setups, time.Since(t0))

		m := &p.m
		if r == 0 {
			m = &meter{}
		}
		units := m.units
		runtime.ReadMemStats(&before)
		root := m.spans.begin("round")
		start := time.Now()
		w.measure(m)
		d := time.Since(start)
		m.spans.end(root)
		runtime.ReadMemStats(&after)
		if r == 0 {
			p.m.attempted += m.attempted
			p.m.failed += m.failed
		} else {
			p.busy += d
			p.rates = append(p.rates, float64(m.units-units)/d.Seconds())
			p.peaks = append(p.peaks, peakRSSMB())
			p.allocs += after.TotalAlloc - before.TotalAlloc
			p.gcCycles += after.NumGC - before.NumGC
		}

		if err := w.check(r); err != nil {
			return p, errCheck{fmt.Errorf("round %d: %w", r, err)}
		}
		if r == 1 {
			p.counts = w.counts()
		}
	}
	return p, nil
}

// rate is the median of the phase's per-round throughputs.
func (p *phase) rate() float64 { return medianOf(p.rates) }

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: sql-star, terasort, stream-window or kv-txn")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds; a traced run splits them between its two phases")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outDir := flag.String("out", ".bench_out", "directory for spans and profiles of a traced run")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	var res *result
	if *traced == 0 {
		res, err = runEndToEnd(w, budget)
	} else {
		res, err = runTraced(w, budget, filepath.Join(*outDir, *name))
	}
	if res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d checksum %016x\n", *name, *seed, w.checksum())
	for _, n := range names {
		fmt.Printf("%-36s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runEndToEnd measures one untraced phase. A run that fails to make
// progress returns no result; a failed output check returns the result
// with the error.
func runEndToEnd(w bench, budget time.Duration) (*result, error) {
	p, err := runPhase(w, budget, 3, nil)
	var ce errCheck
	if err != nil && !errors.As(err, &ce) {
		return nil, err
	}
	res := &result{
		Correct:   err == nil,
		Attempted: p.m.attempted,
		Failed:    p.m.failed,
		Metrics:   map[string]metric{},
	}
	if len(p.m.lat) == 0 {
		return nil, fmt.Errorf("no measured calls: %v", err)
	}
	res.Metrics["setup_s"] = metric{median(p.setups).Seconds(), "s"}
	res.Metrics["peak_rss_mb"] = metric{medianOf(p.peaks), "MB"}
	res.Metrics["throughput_per_s"] = metric{p.rate(), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{ms(quantile(p.m.lat, 0.5)), "ms"}
	res.Metrics["latency_tail_ms"] = metric{ms(quantile(p.m.lat, w.tail())), "ms"}
	return res, err
}

// runTraced measures an untraced phase, then a phase with spans and the
// CPU profiler on, each for half the budget, then replays single layers,
// and reports per-layer metrics. Every per-layer metric is present; a
// layer the workload does not reach reports 0. The tracing overhead is
// the untraced phase's throughput over the traced phase's, less one; it
// includes the profiler's.
func runTraced(w bench, budget time.Duration, dir string) (*result, error) {
	plain, err := runPhase(w, budget/2, 3, nil)
	if err != nil {
		return stopped(plain, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpuPath := filepath.Join(dir, "cpu.pprof")
	cpuFile, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	defer cpuFile.Close()
	allocBefore := memProfile()
	if err := pprof.StartCPUProfile(cpuFile); err != nil {
		return nil, err
	}
	spans := newSpanLog()
	traced, err := runPhase(w, budget/2, 3, spans)
	pprof.StopCPUProfile()
	allocAfter := memProfile()
	if err != nil {
		return stopped(traced, err)
	}
	if err := cpuFile.Close(); err != nil {
		return nil, err
	}
	replayed, err := w.replay(&meter{spans: spans})
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	vals := map[string]float64{}
	for _, m := range []map[string]float64{plain.counts, replayed, spans.layerTimings(), spans.selfShares()} {
		for k, v := range m {
			vals[k] = v
		}
	}
	vals["trace.spans"] = float64(len(spans.spans))
	vals["trace.overhead_pct"] = 100 * (plain.rate()/traced.rate() - 1)
	vals["runtime.alloc_bytes_per_op"] = float64(plain.allocs) / float64(plain.m.units)
	vals["runtime.gc_cycles"] = float64(plain.gcCycles) / float64(len(plain.rates))
	cpu, err := cpuShares(cpuPath)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for k, v := range cpu {
		vals["cpu."+k+".share"] = v
	}
	for k, v := range allocShares(allocBefore, allocAfter) {
		vals["alloc."+k+".share"] = v
	}
	if err := writeAllocProfile(filepath.Join(dir, "alloc.pprof")); err != nil {
		return nil, err
	}
	if err := spans.writeChrome(filepath.Join(dir, "trace.json")); err != nil {
		return nil, err
	}
	res := resultOf(plain, vals)
	res.Attempted += traced.m.attempted
	res.Failed += traced.m.failed
	return res, nil
}

// stopped handles a phase that ended on err: a failed output check is
// still reported, as incorrect; any other failure reports nothing.
func stopped(p *phase, err error) (*result, error) {
	var ce errCheck
	if errors.As(err, &ce) {
		return resultOf(p, nil), err
	}
	return nil, err
}

// resultOf fills every per-layer metric from vals (0 where absent).
func resultOf(p *phase, vals map[string]float64) *result {
	res := &result{Correct: true, Attempted: p.m.attempted, Failed: p.m.failed, Metrics: map[string]metric{}}
	for _, l := range perLayer() {
		res.Metrics[l.name] = metric{vals[l.name], l.unit}
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
