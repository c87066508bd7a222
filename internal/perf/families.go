// The benchmark families. Each runs a fixed-seed workload against the
// simulated cluster and reduces it to a Result: a per-window trajectory
// plus Shape (seed-deterministic invariants, exact-matched by the
// differ) and Metrics (wall- or cost-model-dependent numbers, threshold
// compared). Families:
//
//	shuffle  — ShuffleBench-style matching records: generate records,
//	           select the ~1/16 that match a rule, key by rule, count
//	           per rule through a full shuffle. One window per round.
//	stream   — sustained-throughput run of the checkpointed stream
//	           engine over a replayable generator source, measuring
//	           event throughput and checkpoint cost.
//	kv       — YCSB-ish zipf read/write mix against the quorum KV
//	           store. Latencies are fully simulated (deterministic), so
//	           the trajectory is windowed by accumulated virtual time.
//	terasort — rounds of TeraGen + sampled range-partitioned sort.
//	query    — the E-SQL star-schema suite through the cost-based
//	           planner: one round per window, outputs checksummed and
//	           the columnar pushdown counters pinned as shape.
//	avail    — the E-GRAY gray-failure sweep as a trajectory: asymmetric
//	           fault schedules against control and hardened Raft
//	           clusters, one commit-confirmed probe per virtual tick.
//	           Every availability stat is a pure function of the seed,
//	           so the whole sweep gates as shape.
package perf

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	hpbdc "repro"
	"repro/internal/admission"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/query"
	"repro/internal/scenario"
	"repro/internal/stream"
	qtable "repro/internal/table"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Options configures a family run. Each family's workload sizes are
// fixed constants, so every run of a family diffs against its baseline;
// hpbdc-bench -bench is the one entry point that sets these.
type Options struct {
	// Quick shrinks the workload for CI (same shape of measurement,
	// smaller sizes — quick results diff only against quick baselines,
	// enforced through Params).
	Quick bool
	// Seed drives all workload randomness. Default 42.
	Seed uint64
}

// size picks a family's workload size: quick in Quick mode, else full.
func (o Options) size(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Families lists the runnable family names in canonical order.
func Families() []string { return []string{"shuffle", "stream", "kv", "terasort", "query", "avail"} }

// Run executes one named family and returns its result. The workload
// runs several times back to back (see repeats) and each metric reports
// its median across the runs; runs never overlap within a process, so
// concurrent callers cannot skew each other's wall-clock numbers.
func Run(family string, o Options) (*Result, error) {
	if o.Seed == 0 {
		o.Seed = 42
	}
	var run func(Options) (*Result, error)
	switch family {
	case "shuffle":
		run = runShuffle
	case "stream":
		run = runStream
	case "kv":
		run = runKV
	case "terasort":
		run = runTerasort
	case "query":
		run = runQuery
	case "avail":
		run = runAvail
	default:
		return nil, fmt.Errorf("perf: unknown family %q (have %v)", family, Families())
	}
	runMu.Lock()
	defer runMu.Unlock()
	return repeats(run, o)
}

// runMu serializes measured runs process-wide.
var runMu sync.Mutex

// Repetition policy: at least minRuns runs, then more until minMeasured
// of wall time is spent measuring, up to maxRuns. A quick stream run
// takes ~30ms and samples only ten checkpoints, and its per-run mean
// checkpoint time spreads over 3x; the median of ~25 runs holds still.
const (
	minRuns     = 3
	minMeasured = 750 * time.Millisecond
	maxRuns     = 25
)

// repeats runs a family repeatedly and folds the runs into one Result.
// Quick runs last milliseconds, so a single GC cycle or a busy
// neighbouring process can halve one run's wall throughput; the median
// across runs cannot be moved by fewer than half of them. Every run
// starts from a collected heap, and Shape must agree across runs — a
// workload that does not reproduce within one process is an error, not
// noise. Metrics are per-metric medians; Windows are the trajectory of
// the run whose primary throughput is the median one.
func repeats(run func(Options) (*Result, error), o Options) (*Result, error) {
	var runs []*Result
	start := time.Now()
	for len(runs) < minRuns || (len(runs) < maxRuns && time.Since(start) < minMeasured) {
		runtime.GC()
		r, err := run(o)
		if err != nil {
			return nil, err
		}
		if len(runs) > 0 && (!reflect.DeepEqual(r.Shape, runs[0].Shape) || len(r.Windows) != len(runs[0].Windows)) {
			return nil, fmt.Errorf("perf: %s: run %d changed shape within one process:\n  %v\nvs %v",
				r.Family, len(runs), runs[0].Shape, r.Shape)
		}
		runs = append(runs, r)
	}
	out := *runs[0]
	out.Metrics = make(map[string]float64, len(runs[0].Metrics))
	vals := make([]float64, len(runs))
	for k := range runs[0].Metrics {
		for i, r := range runs {
			vals[i] = r.Metrics[k]
		}
		out.Metrics[k] = median(vals)
	}
	if k := primaryRate(out.Metrics); k != "" {
		sort.SliceStable(runs, func(i, j int) bool { return runs[i].Metrics[k] < runs[j].Metrics[k] })
		out.Windows = runs[len(runs)/2].Windows
	}
	return &out, nil
}

// median returns the middle value of xs (mean of the middle two for an
// even count). xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[m-1] + xs[m]) / 2
	}
	return xs[m]
}

// primaryRate names a family's headline throughput metric: the first
// "_per_sec" metric in sorted order, or "" when it has none.
func primaryRate(m map[string]float64) string {
	for _, k := range sortedKeys(m) {
		if strings.HasSuffix(k, "_per_sec") {
			return k
		}
	}
	return ""
}

// newResult stamps the invariant header fields.
func newResult(family string, o Options, params map[string]string) *Result {
	params["seed"] = fmt.Sprint(o.Seed)
	params["transport"] = "rdma" // every family runs on netsim.RDMA40G, hpbdc.New's default
	params["quick"] = fmt.Sprint(o.Quick)
	return &Result{
		Schema:  SchemaVersion,
		Family:  family,
		Params:  params,
		Env:     CaptureEnv(),
		Shape:   map[string]int64{},
		Metrics: map[string]float64{},
	}
}

// windowsFromSamples converts a WindowedHistogram series.
func windowsFromSamples(samples []metrics.WindowSample) []Window {
	out := make([]Window, len(samples))
	for i, s := range samples {
		out[i] = Window{
			StartNs: int64(s.Start),
			Count:   s.Count,
			PerSec:  s.PerSec,
			MeanNs:  s.Mean,
			P50Ns:   s.P50,
			P95Ns:   s.P95,
			P99Ns:   s.P99,
			P999Ns:  s.P999,
			MaxNs:   s.Max,
		}
	}
	return out
}

// ---- kv --------------------------------------------------------------------

// runKV replays a zipf-skewed read/write mix against the quorum store.
// Every operation's latency is computed by the fabric cost model, so
// the whole trajectory — windows included — is a pure function of the
// seed: windows advance by accumulated virtual time, not wall clock.
func runKV(o Options) (*Result, error) {
	const keys, skew, readFrac, valueSize = 512, 0.99, 0.8, 128
	nOps := o.size(20_000, 5_000)
	top := topology.TwoTier(2, 4, 2)
	fabric := netsim.NewFabric(top, netsim.RDMA40G)
	store, err := kvstore.New(kvstore.Config{Fabric: fabric, N: 3, R: 2, W: 2})
	if err != nil {
		return nil, err
	}
	ops := workload.KVOps(nOps, keys, skew, readFrac, valueSize, o.Seed)

	// Window by virtual time so the series is deterministic. Width is
	// sized to the op count so both modes produce a useful handful of
	// windows; it is pinned in Params, so baselines stay comparable.
	width := time.Duration(o.size(5, 2)) * time.Millisecond
	reads := metrics.NewWindowedHistogram(width)
	writes := metrics.NewWindowedHistogram(width)
	all := metrics.NewWindowedHistogram(width)

	var virtual time.Duration
	var nGet, nPut, hits, misses int64
	sum := fnv.New64a()
	nodes := top.Size()
	for i, op := range ops {
		coord := topology.NodeID(i % nodes)
		switch op.Kind {
		case workload.OpPut:
			lat, err := store.Put(coord, op.Key, op.Value)
			if err != nil {
				return nil, fmt.Errorf("perf: kv put: %w", err)
			}
			virtual += lat
			writes.ObserveDuration(virtual, lat)
			all.ObserveDuration(virtual, lat)
			nPut++
		case workload.OpGet:
			v, lat, err := store.Get(coord, op.Key)
			switch {
			case err == nil:
				hits++
				sum.Write([]byte(op.Key))
				sum.Write(v)
			case err == kvstore.ErrNotFound:
				misses++
			default:
				return nil, fmt.Errorf("perf: kv get: %w", err)
			}
			virtual += lat
			reads.ObserveDuration(virtual, lat)
			all.ObserveDuration(virtual, lat)
			nGet++
		}
	}

	r := newResult("kv", o, map[string]string{
		"ops":        fmt.Sprint(nOps),
		"keys":       fmt.Sprint(keys),
		"skew":       fmt.Sprint(skew),
		"read_frac":  fmt.Sprint(readFrac),
		"value_size": fmt.Sprint(valueSize),
		"window_ms":  fmt.Sprint(width.Milliseconds()),
		"quorum":     "n3r2w2",
	})
	r.Windows = windowsFromSamples(all.Series())
	r.Shape["ops"] = int64(nOps)
	r.Shape["reads"] = nGet
	r.Shape["writes"] = nPut
	r.Shape["hits"] = hits
	r.Shape["misses"] = misses
	r.Shape["read_checksum"] = int64(sum.Sum64() >> 1) // >>1: stay positive in JSON
	r.Shape["windows"] = int64(len(r.Windows))
	rt, wt := reads.Total(), writes.Total()
	r.Metrics["get_p50_ns"] = float64(rt.P50)
	r.Metrics["get_p99_ns"] = float64(rt.P99)
	r.Metrics["get_p999_ns"] = float64(rt.P999)
	r.Metrics["put_p50_ns"] = float64(wt.P50)
	r.Metrics["put_p99_ns"] = float64(wt.P99)
	r.Metrics["put_p999_ns"] = float64(wt.P999)
	r.Metrics["virtual_elapsed_ns"] = float64(virtual)
	if virtual > 0 {
		r.Metrics["ops_per_sec"] = float64(nOps) / virtual.Seconds()
	}

	// Overload segment: drive the same store build at 2x its measured
	// closed-loop capacity through the admission stack, open-loop. The
	// whole segment is virtual time, so goodput-at-saturation and the
	// admitted tail are seed-deterministic; its windows are appended
	// after the mix's, offset by the mix's virtual elapsed time.
	mean, capacity := scenario.Capacity(virtual / time.Duration(nOps))
	ovlDur := time.Duration(o.size(500, 200)) * time.Millisecond
	ovlStore, err := kvstore.New(kvstore.Config{Fabric: netsim.NewFabric(top, netsim.RDMA40G), N: 3, R: 2, W: 2})
	if err != nil {
		return nil, err
	}
	ovl := admission.NewSim(scenario.OverloadConfig(ovlStore, nodes, 2, capacity, mean, ovlDur, o.Seed, true)).Run()
	for _, w := range windowsFromSamples(ovl.Windows) {
		w.StartNs += int64(virtual)
		r.Windows = append(r.Windows, w)
	}
	r.Params["overload_mult"] = "2"
	r.Params["overload_ms"] = fmt.Sprint(ovlDur.Milliseconds())
	r.Shape["overload_offered"] = ovl.Offered
	r.Shape["overload_goodput"] = ovl.Goodput
	r.Shape["overload_shed"] = ovl.ShedQuota + ovl.ShedQueue + ovl.ShedSojourn
	r.Shape["overload_checksum"] = int64(ovl.Checksum >> 1)
	r.Metrics["overload_goodput_per_sec"] = ovl.GoodputPerSec
	r.Metrics["overload_admitted_p999_ns"] = float64(ovl.AdmittedLatency.P999)

	// Transactional segment: the same zipf key pressure as multi-key 2PC
	// against the range-sharded plane, with a mid-run split and merge so
	// the trajectory crosses topology changes. The plane's virtual cost
	// model is the clock, so windows, counters and the read checksum are
	// all seed-deterministic; windows append after the overload segment's.
	txnN := o.size(600, 200)
	sh := kvstore.NewSharded(kvstore.ShardedConfig{
		Seed: o.Seed, Groups: 2, InitialSplits: []string{"key-00000040"},
		MaxOpAttempts: 16, MaxTxnAttempts: 8,
	})
	txns := workload.TxnOps(workload.TxnSpec{
		N: txnN, Keys: 128, Span: 2, Skew: skew, ValueSize: 32, Seed: o.Seed,
	})
	txnWindows := metrics.NewWindowedHistogram(width)
	txnSum := fnv.New64a()
	txnBase := int64(virtual) + int64(ovlDur)
	prevCost := sh.VirtualCost()
	ctx := context.Background()
	for i, tx := range txns {
		got, err := sh.Txn(ctx, tx.Reads, tx.Writes)
		cost := sh.VirtualCost()
		lat := cost - prevCost
		prevCost = cost
		if err != nil {
			if errors.Is(err, kvstore.ErrTxnConflict) || errors.Is(err, kvstore.ErrTxnAborted) {
				continue // clean aborts are part of the measured mix
			}
			return nil, fmt.Errorf("perf: kv txn %d: %w", i, err)
		}
		read := make([]string, 0, len(got))
		for k := range got {
			read = append(read, k)
		}
		sort.Strings(read)
		for _, k := range read {
			txnSum.Write([]byte(k))
			txnSum.Write(got[k])
		}
		txnWindows.ObserveDuration(cost, lat)
		switch i {
		case txnN / 3:
			if err := sh.Split("key-00000020"); err != nil && !errors.Is(err, kvstore.ErrRangeBusy) {
				return nil, fmt.Errorf("perf: kv txn split: %w", err)
			}
		case 2 * txnN / 3:
			if err := sh.Merge("key-00000020"); err != nil && !errors.Is(err, kvstore.ErrRangeBusy) {
				return nil, fmt.Errorf("perf: kv txn merge: %w", err)
			}
		}
	}
	for _, w := range windowsFromSamples(txnWindows.Series()) {
		w.StartNs += txnBase
		r.Windows = append(r.Windows, w)
	}
	r.Params["txn_ops"] = fmt.Sprint(txnN)
	r.Params["txn_span"] = "2"
	r.Shape["txn_committed"] = sh.Reg.Counter("txn_committed").Value()
	r.Shape["txn_conflicts"] = sh.Reg.Counter("txn_conflicts").Value()
	r.Shape["txn_checksum"] = int64(txnSum.Sum64() >> 1)
	r.Shape["txn_ranges"] = int64(sh.RangeCount())
	r.Shape["windows"] = int64(len(r.Windows)) // recount: overload + txn windows included
	txnTotal := txnWindows.Total()
	r.Metrics["txn_p50_ns"] = float64(txnTotal.P50)
	r.Metrics["txn_p99_ns"] = float64(txnTotal.P99)
	r.Metrics["txn_virtual_elapsed_ns"] = float64(sh.VirtualCost())
	return r, nil
}

// ---- shuffle ---------------------------------------------------------------

// runShuffle is the matching-records workload: each round generates
// seeded records across source partitions, keeps the ~1/16 that match,
// keys the matches by rule id and counts per rule through a full
// shuffle. One round = one window; the checksum folds every round's
// sorted (rule, count) pairs, so any change in what got shuffled is a
// shape break.
func runShuffle(o Options) (*Result, error) {
	rounds, records := o.size(5, 3), o.size(48_000, 16_000)
	const parts = 8
	const reduceParts = 4
	const rules = 64

	var windows []Window
	var totalRecords, totalMatched, totalGroups int64
	sum := fnv.New64a()
	var totalWall time.Duration
	var lastFetches fetchCost

	for round := 0; round < rounds; round++ {
		ctx := hpbdc.New(hpbdc.Config{Racks: 2, NodesPerRack: 4, Seed: o.Seed + uint64(round)})
		roundSeed := o.Seed + uint64(round)*1_000_003
		perPart := records / parts
		src := hpbdc.SourceFunc(ctx, parts, func(part int) []uint64 {
			out := make([]uint64, perPart)
			// SplitMix-style stream decorrelated per (round, partition).
			x := roundSeed + uint64(part)*0x9e3779b97f4a7c15
			for i := range out {
				x += 0x9e3779b97f4a7c15
				z := x
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				out[i] = z ^ (z >> 31)
			}
			return out
		})
		matched := hpbdc.FlatMap(src, func(rec uint64) []hpbdc.Pair[int64, int64] {
			if rec%16 != 0 { // the matching rule: ~1/16 selectivity
				return nil
			}
			return []hpbdc.Pair[int64, int64]{{Key: int64(rec % rules), Value: 1}}
		})
		counts := hpbdc.ReduceByKey(matched, hpbdc.Int64Codec, hpbdc.Int64Codec, reduceParts,
			func(a, b int64) int64 { return a + b })

		start := time.Now()
		got, err := counts.Collect()
		if err != nil {
			return nil, fmt.Errorf("perf: shuffle round %d: %w", round, err)
		}
		wall := time.Since(start)
		totalWall += wall

		sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
		var matchedN int64
		for _, p := range got {
			matchedN += p.Value
			fmt.Fprintf(sum, "%d=%d;", p.Key, p.Value)
		}
		roundRecords := int64(perPart * parts)
		totalRecords += roundRecords
		totalMatched += matchedN
		totalGroups += int64(len(got))

		lastFetches = readFetchCost(ctx)
		lastTasks := ctx.Metrics().Histogram("task_duration_ns").Snapshot()
		windows = append(windows, Window{
			StartNs: int64(totalWall - wall),
			Count:   roundRecords,
			PerSec:  float64(roundRecords) / wall.Seconds(),
			MeanNs:  lastTasks.Mean,
			P50Ns:   lastTasks.P50,
			P95Ns:   lastTasks.P95,
			P99Ns:   lastTasks.P99,
			P999Ns:  lastTasks.P999,
			MaxNs:   lastTasks.Max,
		})
	}

	r := newResult("shuffle", o, map[string]string{
		"rounds":       fmt.Sprint(rounds),
		"records":      fmt.Sprint(records),
		"parts":        fmt.Sprint(parts),
		"reduce_parts": fmt.Sprint(reduceParts),
		"rules":        fmt.Sprint(rules),
		"selectivity":  "1/16",
	})
	r.Windows = windows
	r.Shape["records"] = totalRecords
	r.Shape["matched"] = totalMatched
	r.Shape["groups"] = totalGroups
	r.Shape["match_checksum"] = int64(sum.Sum64() >> 1)
	r.Shape["windows"] = int64(len(windows))
	// Summary metrics are the robust ones: wall throughput (threshold-
	// compared) and the cost model's simulated per-fetch time (stable).
	// Task wall percentiles live in Windows only — at microsecond task
	// sizes they carry too much scheduler noise to gate CI on.
	r.Metrics["records_per_sec"] = float64(totalRecords) / totalWall.Seconds()
	if q := lastFetches.queries; q > 0 {
		r.Metrics["sim_fetch_mean_ns"] = float64(lastFetches.timeNs) / float64(q)
	}
	return r, nil
}

// fetchCost is the fabric's simulated shuffle-fetch aggregate for one
// round, read from the context registry. Simulated time is a pure
// function of (topology, model, placement), so it is far more stable
// across runs than any wall-clock latency.
type fetchCost struct {
	queries, timeNs int64
}

func readFetchCost(ctx *hpbdc.Context) fetchCost {
	reg := ctx.Metrics()
	return fetchCost{
		queries: reg.Counter("net_cost_queries").Value(),
		timeNs:  reg.Counter("net_cost_time_ns").Value(),
	}
}

// ---- stream ----------------------------------------------------------------

// runStream drives the checkpointed stream engine to source exhaustion
// and measures sustained event throughput alongside checkpoint cost.
// Wall throughput is windowed by event blocks via the Runner's tick
// hook; the result set, its checksum and the committed checkpoint
// bytes are seed-deterministic shape.
func runStream(o Options) (*Result, error) {
	events := int64(o.size(60_000, 20_000))
	const checkpointEvery = 2_000
	const keys = 64
	const workers = 4
	src := stream.NewGeneratorSource(o.Seed, events, keys, time.Millisecond, 4*time.Millisecond)

	blockEvery := int(events / 12)
	if blockEvery < 1 {
		blockEvery = 1
	}
	var windows []Window
	start := time.Now()
	lastBoundary := time.Duration(0)
	runner := stream.NewRunner(stream.RunConfig{
		Pipeline: stream.Config{
			Workers: workers,
			Buffer:  256,
			Window:  50 * time.Millisecond,
		},
		CheckpointEvery: checkpointEvery,
		WatermarkEvery:  256,
		WatermarkLag:    5 * time.Millisecond,
		TickEvery:       blockEvery,
		Tick: func() {
			now := time.Since(start)
			wall := now - lastBoundary
			if wall <= 0 {
				wall = time.Nanosecond
			}
			windows = append(windows, Window{
				StartNs: int64(lastBoundary),
				Count:   int64(blockEvery),
				PerSec:  float64(blockEvery) / wall.Seconds(),
			})
			lastBoundary = now
		},
	}, src)

	results, err := runner.Run()
	if err != nil {
		return nil, fmt.Errorf("perf: stream: %w", err)
	}
	totalWall := time.Since(start)

	sort.Slice(results, func(i, j int) bool {
		if results[i].WindowStart != results[j].WindowStart {
			return results[i].WindowStart < results[j].WindowStart
		}
		return results[i].Key < results[j].Key
	})
	sum := fnv.New64a()
	for _, res := range results {
		fmt.Fprintf(sum, "%d|%s|%.6f|%d;", res.WindowStart, res.Key, res.Sum, res.Count)
	}

	reg := runner.Metrics()
	ckpt := reg.Histogram("checkpoint_duration_ns").Snapshot()

	r := newResult("stream", o, map[string]string{
		"events":           fmt.Sprint(events),
		"keys":             fmt.Sprint(keys),
		"workers":          fmt.Sprint(workers),
		"checkpoint_every": fmt.Sprint(checkpointEvery),
		"window_ms":        "50",
	})
	r.Windows = windows
	r.Shape["events"] = events
	r.Shape["results"] = int64(len(results))
	r.Shape["results_checksum"] = int64(sum.Sum64() >> 1)
	r.Shape["checkpoints_committed"] = reg.Counter("checkpoints_committed").Value()
	r.Shape["checkpoint_bytes"] = reg.Counter("checkpoint_bytes").Value()
	r.Shape["windows"] = int64(len(windows))
	// Throughput gates; checkpoint encode time is wall-measured over few
	// samples, so only its mean is summarized (percentiles stay in the
	// run's histogram for interactive inspection).
	r.Metrics["events_per_sec"] = float64(events) / totalWall.Seconds()
	r.Metrics["checkpoint_mean_ns"] = ckpt.Mean
	return r, nil
}

// ---- terasort --------------------------------------------------------------

// runTerasort runs rounds of TeraGen + sampled range-partitioned sort.
// The checksum folds the first and last key of every output partition
// — enough to pin both the partition boundaries and the sort order.
func runTerasort(o Options) (*Result, error) {
	rounds, records := o.size(3, 2), o.size(60_000, 24_000)
	const parts = 8

	var windows []Window
	var totalRecords int64
	sum := fnv.New64a()
	var totalWall time.Duration
	var lastFetches fetchCost

	for round := 0; round < rounds; round++ {
		ctx := hpbdc.New(hpbdc.Config{Racks: 2, NodesPerRack: 4, Seed: o.Seed + uint64(round)})
		perPart := records / parts
		roundSeed := o.Seed + uint64(round)*7_919
		gen := hpbdc.SourceFunc(ctx, parts, func(part int) []hpbdc.Pair[string, string] {
			recs := workload.TeraGen(perPart, roundSeed+uint64(part))
			out := make([]hpbdc.Pair[string, string], len(recs))
			for i, rec := range recs {
				out[i] = hpbdc.Pair[string, string]{Key: string(rec.Key), Value: string(rec.Value)}
			}
			return out
		})

		start := time.Now()
		sorted, err := hpbdc.SortByKey(gen, hpbdc.StringCodec, hpbdc.StringCodec, parts, 128)
		if err != nil {
			return nil, fmt.Errorf("perf: terasort round %d: %w", round, err)
		}
		out, err := sorted.CollectPartitions()
		if err != nil {
			return nil, fmt.Errorf("perf: terasort round %d: %w", round, err)
		}
		wall := time.Since(start)
		totalWall += wall

		var n int64
		prev := ""
		for _, part := range out {
			if len(part) > 0 {
				fmt.Fprintf(sum, "%x|%x;", part[0].Key, part[len(part)-1].Key)
			}
			for _, p := range part {
				if p.Key < prev {
					return nil, fmt.Errorf("perf: terasort round %d: output not sorted", round)
				}
				prev = p.Key
				n++
			}
		}
		totalRecords += n

		lastFetches = readFetchCost(ctx)
		lastTasks := ctx.Metrics().Histogram("task_duration_ns").Snapshot()
		windows = append(windows, Window{
			StartNs: int64(totalWall - wall),
			Count:   n,
			PerSec:  float64(n) / wall.Seconds(),
			MeanNs:  lastTasks.Mean,
			P50Ns:   lastTasks.P50,
			P95Ns:   lastTasks.P95,
			P99Ns:   lastTasks.P99,
			P999Ns:  lastTasks.P999,
			MaxNs:   lastTasks.Max,
		})
	}

	r := newResult("terasort", o, map[string]string{
		"rounds":  fmt.Sprint(rounds),
		"records": fmt.Sprint(records),
		"parts":   fmt.Sprint(parts),
	})
	r.Windows = windows
	r.Shape["records"] = totalRecords
	r.Shape["order_checksum"] = int64(sum.Sum64() >> 1)
	r.Shape["windows"] = int64(len(windows))
	r.Metrics["records_per_sec"] = float64(totalRecords) / totalWall.Seconds()
	if q := lastFetches.queries; q > 0 {
		r.Metrics["sim_fetch_mean_ns"] = float64(lastFetches.timeNs) / float64(q)
	}
	return r, nil
}

// ---- query -----------------------------------------------------------------

// runQuery executes the E-SQL star-schema suite through the cost-based
// planner, one round (fresh engine + regenerated star data) per window.
// The result rows fold into a checksum — any planner change that alters
// a relational answer is a shape break, caught without the oracle in
// the loop — and the columnar scan counters (rows pruned, bytes
// decoded/skipped) pin pushdown behavior, which is a pure function of
// the seed. Wall throughput is threshold-compared.
func runQuery(o Options) (*Result, error) {
	rounds, factRows := o.size(3, 2), o.size(6_000, 2_000)
	const parts = 4
	custN, prodN, dateN := 120, 40, 48
	broadcastRows := int64(factRows / 4)

	var windows []Window
	var totalRows, totalQueries int64
	var scans qtable.ScanCounters
	sum := fnv.New64a()
	var totalWall time.Duration

	suite := query.StarQueries()
	for round := 0; round < rounds; round++ {
		fab := netsim.NewFabric(topology.TwoTier(2, 4, 2), netsim.RDMA40G)
		cl := cluster.New(cluster.Config{Fabric: fab, SlotsPerNode: 2})
		eng := core.NewEngine(core.Config{Cluster: cl, Seed: o.Seed})
		env := query.NewEnv(eng, nil)
		rels := query.GenStar(o.Seed+uint64(round)*1_000_003, factRows, custN, prodN, dateN)
		if err := query.RegisterStar(env, rels, parts); err != nil {
			return nil, fmt.Errorf("perf: query round %d: %w", round, err)
		}

		start := time.Now()
		var roundRows int64
		for _, q := range suite {
			plan, err := env.SQL(q.SQL, query.Options{Optimize: true, Parts: parts, BroadcastRows: broadcastRows})
			if err != nil {
				return nil, fmt.Errorf("perf: query %s: %w", q.ID, err)
			}
			rows, err := plan.Execute()
			if err != nil {
				return nil, fmt.Errorf("perf: query %s: %w", q.ID, err)
			}
			roundRows += int64(len(rows))
			// Ordered plans have one valid order; unordered ones are
			// multisets — sort the encoded rows so the fold is stable.
			enc := make([]string, len(rows))
			for i, r := range rows {
				enc[i] = check.FormatRow(r)
			}
			if !plan.Ordered() {
				sort.Strings(enc)
			}
			fmt.Fprintf(sum, "%s:", q.ID)
			for _, e := range enc {
				fmt.Fprintf(sum, "%s;", e)
			}
		}
		wall := time.Since(start)
		totalWall += wall
		totalRows += roundRows
		totalQueries += int64(len(suite))
		scans = scans.Add(qtable.ReadScanCounters(eng.Reg))

		tasks := eng.Reg.Histogram("task_duration_ns").Snapshot()
		windows = append(windows, Window{
			StartNs: int64(totalWall - wall),
			Count:   int64(len(suite)),
			PerSec:  float64(len(suite)) / wall.Seconds(),
			MeanNs:  tasks.Mean,
			P50Ns:   tasks.P50,
			P95Ns:   tasks.P95,
			P99Ns:   tasks.P99,
			P999Ns:  tasks.P999,
			MaxNs:   tasks.Max,
		})
	}

	r := newResult("query", o, map[string]string{
		"rounds":         fmt.Sprint(rounds),
		"fact_rows":      fmt.Sprint(factRows),
		"parts":          fmt.Sprint(parts),
		"queries":        fmt.Sprint(len(suite)),
		"broadcast_rows": fmt.Sprint(broadcastRows),
	})
	r.Windows = windows
	r.Shape["queries"] = totalQueries
	r.Shape["result_rows"] = totalRows
	r.Shape["result_checksum"] = int64(sum.Sum64() >> 1)
	r.Shape["rows_scanned"] = scans.RowsScanned
	r.Shape["rows_pruned"] = scans.RowsPruned
	r.Shape["bytes_decoded"] = scans.BytesDecoded
	r.Shape["bytes_skipped"] = scans.BytesSkipped
	r.Shape["windows"] = int64(len(windows))
	r.Metrics["queries_per_sec"] = float64(totalQueries) / totalWall.Seconds()
	r.Metrics["result_rows_per_sec"] = float64(totalRows) / totalWall.Seconds()
	return r, nil
}

// ---- avail -----------------------------------------------------------------

// runAvail replays the gray-failure availability sweep as a trajectory:
// three asymmetric fault schedules (one-way inbound isolation, a
// non-transitive partial partition, link flapping) against a 5-node Raft
// cluster, control (vanilla) vs defended (PreVote + CheckQuorum +
// randomized backoff). One commit-confirmed proposal probes every
// virtual tick; check.Availability charges only failures that coincide
// with a connected majority. Everything but the wall probe rate is a
// pure function of the seed, so the unavailability windows, term growth
// and step-down counts all gate as exact-match shape — a liveness
// regression (say, a PreVote bug reintroducing term inflation) breaks
// the baseline the same way a lost record breaks the shuffle checksum.
func runAvail(o Options) (*Result, error) {
	// One virtual tick is modeled as 1ms for window bookkeeping.
	const tickNs = int64(time.Millisecond)

	r := newResult("avail", o, map[string]string{
		"nodes":   fmt.Sprint(scenario.GrayNodes),
		"horizon": fmt.Sprint(scenario.GrayHorizon),
	})
	start := time.Now()
	var offset, totalProbes, totalFailed int64
	for _, sc := range scenario.GraySchedules() {
		for _, mode := range []string{"control", "defended"} {
			res, err := scenario.GrayEpisode(mode == "defended", sc.Sched, o.Seed)
			if err != nil {
				return nil, fmt.Errorf("perf: avail %s/%s: %w", sc.Name, mode, err)
			}
			rep := res.Avail
			totalProbes += int64(rep.Probes)
			totalFailed += int64(rep.Failed)

			key := strings.ReplaceAll(sc.Name, "-", "_") + "_" + mode
			r.Shape[key+"_failed"] = int64(rep.Failed)
			r.Shape[key+"_windows"] = int64(rep.Windows)
			r.Shape[key+"_longest"] = rep.Longest
			r.Shape[key+"_unavail"] = rep.Total
			r.Shape[key+"_term_delta"] = int64(res.TermDelta)
			r.Shape[key+"_stepdowns"] = int64(res.StepDowns)

			meanRounds := int64(0)
			if res.Committed > 0 {
				meanRounds = res.CommitRounds / res.Committed
			}
			r.Windows = append(r.Windows, Window{
				StartNs: offset,
				Count:   int64(rep.Probes),
				PerSec:  float64(res.Committed) / (float64(scenario.GrayHorizon*tickNs) / float64(time.Second)),
				MeanNs:  float64(meanRounds),
			})
			offset += scenario.GrayHorizon * tickNs
		}
	}
	wall := time.Since(start)

	r.Shape["probes"] = totalProbes
	r.Shape["failed"] = totalFailed
	r.Shape["windows"] = int64(len(r.Windows))
	// The only wall-clock number: probe throughput, threshold-compared.
	r.Metrics["probes_per_sec"] = float64(totalProbes) / wall.Seconds()
	return r, nil
}
