package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/internal/check"
	"repro/internal/stream"
)

// windowSizes sizes one stream-window pass: events and distinct keys.
type windowSizes struct {
	events int64
	keys   int
}

var streamSizes = windowSizes{events: 100_000, keys: 64}

// window is the tumbling window width; the generator's disorder (4ms
// jitter) stays under the watermark lag (5ms), so no event is late.
const window = 50 * time.Millisecond

// streamWindow replays the same drained generator events through a
// fresh stream.Runner every pass. The generator's per-event formatting
// is set-up, not measurement. Pass 0 is checked against the reference
// windows and against a single-worker run; later passes must reproduce
// its result checksum.
type streamWindow struct {
	seed uint64
	size windowSizes

	events  []stream.Event
	runner  *stream.Runner
	results []stream.Result
	err     error

	sum uint64 // pass 0's result checksum
}

func newStreamWindow(seed uint64, size windowSizes) *streamWindow {
	return &streamWindow{seed: seed, size: size}
}

func (w *streamWindow) runConfig(workers int) stream.RunConfig {
	return stream.RunConfig{
		Pipeline:        stream.Config{Workers: workers, Buffer: 256, Window: window},
		CheckpointEvery: 2000,
		WatermarkEvery:  256,
		WatermarkLag:    5 * time.Millisecond,
	}
}

// workers is the keyed parallelism: at most two, and no more than nproc.
func workers() int { return min(2, runtime.NumCPU()) }

func (w *streamWindow) setup(int) error {
	src := stream.NewGeneratorSource(w.seed, w.size.events, w.size.keys, time.Millisecond, 4*time.Millisecond)
	evs, err := check.DrainSource(src)
	if err != nil {
		return err
	}
	w.events = evs
	w.runner = stream.NewRunner(w.runConfig(workers()), stream.NewSliceSource(evs))
	return nil
}

func (w *streamWindow) tail() float64 { return 0.9 }

func (w *streamWindow) measure(m *meter) {
	t0 := time.Now()
	w.results, w.err = w.runner.Run()
	d := m.call("stream.run", t0)
	m.op(w.err == nil)
	m.sample(d, int64(len(w.events)))
}

func (w *streamWindow) check(round int) error {
	if w.err != nil {
		return w.err
	}
	sum := resultsChecksum(w.results)
	if round > 0 {
		if sum != w.sum {
			return fmt.Errorf("result checksum %x differs from pass 0's %x", sum, w.sum)
		}
		return nil
	}
	if d := check.DiffWindows("stream-window", w.results, w.events, window, 0); !d.OK {
		return fmt.Errorf("%s", d)
	}
	single, err := stream.NewRunner(w.runConfig(1), stream.NewSliceSource(w.events)).Run()
	if err != nil {
		return fmt.Errorf("single-worker baseline: %w", err)
	}
	if d := check.DiffOrdered("stream-window/single-worker", w.results, single, resultString); !d.OK {
		return fmt.Errorf("%s", d)
	}
	w.sum = sum
	return nil
}

func resultString(r stream.Result) string {
	return fmt.Sprintf("%d|%d|%s|%g|%d", r.WindowStart, r.WindowEnd, r.Key, r.Sum, r.Count)
}

func resultsChecksum(rs []stream.Result) uint64 {
	h := fnv.New64a()
	var b []byte
	for _, r := range rs {
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(r.WindowStart))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.WindowEnd))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Sum))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Count))
		b = append(b, r.Key...)
		h.Write(b)
	}
	return h.Sum64()
}

func (w *streamWindow) checksum() uint64 { return w.sum }

func (w *streamWindow) counts() map[string]float64 {
	reg := w.runner.Metrics()
	return map[string]float64{
		"stream.checkpoint_us_p50":     float64(reg.Histogram("checkpoint_duration_ns").Quantile(0.5)) / 1e3,
		"stream.checkpoint_bytes":      float64(reg.Counter("checkpoint_bytes").Value()),
		"stream.checkpoints_committed": float64(reg.Counter("checkpoints_committed").Value()),
		"stream.results":               float64(len(w.results)),
		"stream.late_dropped":          float64(reg.Counter("late_dropped").Value()),
	}
}

// replay has nothing to replay: the stream layer is measured whole.
func (w *streamWindow) replay(*meter) (map[string]float64, error) { return nil, nil }
