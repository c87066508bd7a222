package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

// buckets are the packages CPU and allocation are attributed to: each
// sample goes to the innermost frame in a repro package, so runtime work
// (allocation, map access) counts against the layer that caused it.
// "hpbdc" is the root repro package, "internal" any other
// repro/internal package, "gc" background collector work and "other"
// everything else (the benchmark itself, the scheduler).
var buckets = []string{
	"hpbdc", "core", "shuffle", "serde", "compress", "table", "query", "netsim", "cluster",
	"stream", "kvstore", "ha", "consensus", "metrics", "trace",
	"internal", "gc", "other",
}

// spanNames are the spans the benchmark records: a root per round or
// replay and a child per call into a layer.
var spanNames = []string{
	"round", "replay", "query.sql", "query.execute", "core.sort_by_key", "core.collect_partitions",
	"stream.run", "kvstore.get", "kvstore.put", "kvstore.txn",
	"replay.hash_writer", "replay.sort_writer", "replay.range_partition", "replay.group_agg",
}

type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric a traced run prints.
func perLayer() []layerMetric {
	out := []layerMetric{
		{"table.rows_scanned", "count"}, {"table.rows_pruned", "count"},
		{"table.bytes_decoded", "B"}, {"table.bytes_skipped", "B"}, {"table.agg_ns_per_row", "ns"},
		{"query.plan_us_p50", "us"}, {"query.exec_ms_p50", "ms"},
		{"core.tasks_launched", "count"}, {"core.stages_run", "count"},
		{"core.task_retries", "count"}, {"core.task_ms_p50", "ms"},
		{"shuffle.records_written", "count"}, {"shuffle.raw_bytes", "B"}, {"shuffle.wire_bytes", "B"},
		{"shuffle.bytes_fetched", "B"}, {"shuffle.spills", "count"},
		{"shuffle.sort_write_ns_per_rec", "ns"}, {"shuffle.hash_write_ns_per_rec", "ns"},
		{"shuffle.partition_ns_per_key", "ns"},
		{"compress.ratio", "ratio"}, {"netsim.fetch_sim_ns_mean", "ns"},
		{"stream.checkpoint_us_p50", "us"}, {"stream.checkpoint_bytes", "B"},
		{"stream.checkpoints_committed", "count"}, {"stream.results", "count"}, {"stream.late_dropped", "count"},
		{"kvstore.lock_retries", "count"}, {"kvstore.moved_retries", "count"},
		{"kvstore.txn_committed", "count"}, {"kvstore.txn_conflicts", "count"}, {"kvstore.txn_retries", "count"},
		{"kvstore.ops_per_s_first_tenth", "1/s"}, {"kvstore.ops_per_s_last_tenth", "1/s"},
		{"kvstore.get_p50_us", "us"}, {"kvstore.put_p50_us", "us"},
		{"kvstore.txn_p50_us", "us"}, {"kvstore.txn_p99_us", "us"}, {"kvstore.sim_us_per_op", "us"},
		{"consensus.proposals", "count"}, {"consensus.redirects", "count"}, {"consensus.failovers", "count"},
		{"runtime.alloc_bytes_per_op", "B"}, {"runtime.gc_cycles", "count"},
		{"trace.overhead_pct", "%"}, {"trace.spans", "count"},
	}
	for _, s := range spanNames {
		out = append(out, layerMetric{"span." + s + ".self_share", "ratio"})
	}
	for _, b := range buckets {
		out = append(out, layerMetric{"cpu." + b + ".share", "ratio"})
	}
	for _, b := range buckets {
		out = append(out, layerMetric{"alloc." + b + ".share", "ratio"})
	}
	return out
}

// outsideMeasure reports whether a stack, leaf first, runs in the
// benchmark's own set-up, checks or replays rather than in a measured
// call; the shares leave such samples out.
func outsideMeasure(funcs []string) bool {
	for _, f := range funcs {
		if !strings.HasPrefix(f, "main.(*") {
			continue
		}
		for _, m := range []string{").setup", ").check", ").replay"} {
			if strings.Contains(f, m) {
				return true
			}
		}
	}
	return false
}

// bucketOf attributes a stack, leaf first, to a bucket.
func bucketOf(funcs []string) string {
	for _, f := range funcs {
		pkg := f
		if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
			if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
				pkg = pkg[:i+j]
			}
		} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
			pkg = pkg[:j]
		}
		switch {
		case pkg == "repro":
			return "hpbdc"
		case strings.HasPrefix(pkg, "repro/internal/"):
			name := strings.TrimPrefix(pkg, "repro/internal/")
			for _, b := range buckets {
				if b == name {
					return b
				}
			}
			return "internal"
		}
	}
	for _, f := range funcs {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || strings.HasPrefix(f, "runtime.bgsweep") ||
			strings.HasPrefix(f, "runtime.bgscavenge") {
			return "gc"
		}
	}
	return "other"
}

// shares normalizes per-bucket weights to shares of their total.
func shares(w map[string]int64) map[string]float64 {
	var total int64
	for _, v := range w {
		total += v
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for k, v := range w {
		out[k] = float64(v) / float64(total)
	}
	return out
}

// cpuShares attributes a CPU profile's sampled time in measured calls to
// buckets.
func cpuShares(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	w := map[string]int64{}
	for _, s := range p.samples {
		var funcs []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				funcs = append(funcs, p.strings[p.funcName[fn]])
			}
		}
		if !outsideMeasure(funcs) {
			w[bucketOf(funcs)] += s.value
		}
	}
	return shares(w), nil
}

// memProfile snapshots the runtime's cumulative allocation profile by
// stack. A GC first publishes the allocations made since the last one.
func memProfile() map[[32]uintptr]int64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			break
		}
	}
	out := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocBytes
	}
	return out
}

// allocShares attributes the bytes measured calls allocated between two
// snapshots.
func allocShares(before, after map[[32]uintptr]int64) map[string]float64 {
	w := map[string]int64{}
	for stk, n := range after {
		d := n - before[stk]
		if d <= 0 {
			continue
		}
		var funcs []string
		pcs := stk[:]
		for i, pc := range pcs {
			if pc == 0 {
				pcs = pcs[:i]
				break
			}
		}
		frames := runtime.CallersFrames(pcs)
		for {
			fr, more := frames.Next()
			funcs = append(funcs, fr.Function)
			if !more {
				break
			}
		}
		if !outsideMeasure(funcs) {
			w[bucketOf(funcs)] += d
		}
	}
	return shares(w)
}

func writeAllocProfile(path string) error {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// profile is the part of a pprof protobuf the attribution needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string index
	strings  []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // last sample value: CPU nanoseconds
}

var errProto = errors.New("malformed profile")

// pbuf walks protobuf wire-format fields.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field returns the next field number, its wire type, and its varint
// value or length-delimited bytes.
func (p *pbuf) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errProto
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[4:]
	default:
		err = errProto
	}
	return num, wire, v, data, err
}

// repeated appends a repeated varint field, packed or not.
func repeated(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	q := pbuf{data}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	top := pbuf{b}
	for len(top.b) > 0 {
		num, _, _, data, err := top.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // sample
			var s profSample
			var vals []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, w, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeated(s.locs, w, v, d)
				case 2:
					vals, err = repeated(vals, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					l := pbuf{d}
					for len(l.b) > 0 {
						ln, _, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcName[id] = name
		case 6: // string table
			p.strings = append(p.strings, string(data))
		}
	}
	for _, name := range p.funcName {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
