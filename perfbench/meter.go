package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// meter collects one phase's measurements: latency samples of the
// workload's unit of latency, units of work done, and operations
// attempted and failed.
type meter struct {
	spans             *spanLog // nil: tracing off
	lat               []time.Duration
	units             int64
	attempted, failed int64
}

// call returns the time since t0 and records it as a span named after
// the layer call it covers.
func (m *meter) call(name string, t0 time.Time) time.Duration {
	d := time.Since(t0)
	m.spans.add(name, t0, d)
	return d
}

// sample records one latency sample that completed units of work.
func (m *meter) sample(d time.Duration, units int64) {
	m.lat = append(m.lat, d)
	m.units += units
}

// op counts one attempted operation, failed unless ok.
func (m *meter) op(ok bool) {
	m.attempted++
	if !ok {
		m.failed++
	}
}

// span is one recorded call. Spans are kept in memory and written when
// the run ends.
type span struct {
	name   string
	start  time.Duration // since the log's epoch
	dur    time.Duration
	parent int // index into spanLog.spans; -1 for a root
}

// spanLog records a root span per round (or replay) and one child span
// per call the benchmark makes into a layer. A nil log records nothing.
type spanLog struct {
	epoch time.Time
	spans []span
	open  int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now(), open: -1} }

// begin opens a root span; calls recorded until end are its children.
func (l *spanLog) begin(name string) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: time.Since(l.epoch), parent: -1})
	l.open = len(l.spans) - 1
	return l.open
}

func (l *spanLog) end(i int) {
	if l == nil {
		return
	}
	l.spans[i].dur = time.Since(l.epoch) - l.spans[i].start
	l.open = -1
}

func (l *spanLog) add(name string, t0 time.Time, d time.Duration) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{name: name, start: t0.Sub(l.epoch), dur: d, parent: l.open})
}

// durations returns every recorded duration of the named span.
func (l *spanLog) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, s.dur)
		}
	}
	return out
}

// layerTimings reports per-call percentiles of the layer calls.
func (l *spanLog) layerTimings() map[string]float64 {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	out := map[string]float64{}
	if d := l.durations("query.sql"); len(d) > 0 {
		out["query.plan_us_p50"] = us(quantile(d, 0.5))
	}
	if d := l.durations("query.execute"); len(d) > 0 {
		out["query.exec_ms_p50"] = ms(quantile(d, 0.5))
	}
	if d := l.durations("kvstore.get"); len(d) > 0 {
		out["kvstore.get_p50_us"] = us(quantile(d, 0.5))
	}
	if d := l.durations("kvstore.put"); len(d) > 0 {
		out["kvstore.put_p50_us"] = us(quantile(d, 0.5))
	}
	if d := l.durations("kvstore.txn"); len(d) > 0 {
		out["kvstore.txn_p50_us"] = us(quantile(d, 0.5))
		out["kvstore.txn_p99_us"] = us(quantile(d, 0.99))
	}
	return out
}

// selfShares reports each span name's self time — its duration less the
// part its children cover — as a share of the total root-span time.
// Children of one root never overlap: the benchmark's client is one
// goroutine making one call at a time.
func (l *spanLog) selfShares() map[string]float64 {
	self := map[string]time.Duration{}
	var total time.Duration
	for _, s := range l.spans {
		self[s.name] += s.dur
		if s.parent >= 0 {
			self[l.spans[s.parent].name] -= s.dur
		} else {
			total += s.dur
		}
	}
	out := map[string]float64{}
	for name, d := range self {
		out["span."+name+".self_share"] = float64(d) / float64(total)
	}
	return out
}

// writeChrome writes the spans as a Chrome trace-event array.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, s := range l.spans {
		ev := event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3, Pid: 1, Tid: 1}
		if s.parent >= 0 {
			ev.Args = map[string]string{"parent": l.spans[s.parent].name + "#" + strconv.Itoa(s.parent)}
		}
		if i > 0 {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of samples (nearest rank).
func quantile(samples []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(samples []time.Duration) time.Duration { return quantile(samples, 0.5) }

// resetPeakRSS resets the process's resident-set high-water mark to its
// current resident set, so the next peakRSSMB covers one round. Where
// the kernel does not allow it, the mark keeps covering the whole run.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
