package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	if g.Add(-3) != 7 {
		t.Fatal("gauge Add result wrong")
	}
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram returned nonzero summaries")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{10, 20, 30, 40, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 150 {
		t.Fatalf("sum = %d", h.Sum())
	}
	if h.Mean() != 30 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != 10 || h.Max() != 50 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	// Quantile estimates are upper bounds within one bucket (~±50% of the
	// true value) and never exceed the true max.
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		var mx int64
		for _, v := range raw {
			x := int64(v%1000000) + 1
			h.Observe(x)
			if x > mx {
				mx = x
			}
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			est := h.Quantile(q)
			if est > mx || est < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 10000; i++ {
		h.Observe(i)
	}
	p50 := h.Quantile(0.5)
	p99 := h.Quantile(0.99)
	if p50 > p99 {
		t.Fatalf("p50 %d > p99 %d", p50, p99)
	}
	// p50 of uniform [1,10000] should be within a bucket of 5000.
	if p50 < 2500 || p50 > 10000 {
		t.Fatalf("p50 = %d, want within bucket of 5000", p50)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for j := int64(0); j < 1000; j++ {
				h.Observe(base + j)
			}
		}(int64(i) * 1000)
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
	if h.Min() != 0 && h.Min() != 1 {
		// Observe clamps values < 1 into bucket for 1 but min records raw 0.
		t.Fatalf("min = %d", h.Min())
	}
	if h.Max() != 3999 {
		t.Fatalf("max = %d, want 3999", h.Max())
	}
}

// TestHistogramSnapshotOrderedUnderObserve takes snapshots while writers
// observe ever larger values: every snapshot must be internally ordered.
func TestHistogramSnapshotOrderedUnderObserve(t *testing.T) {
	h := NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			for v := int64(1); ; v = v*3/2 + w + 1 {
				select {
				case <-stop:
					return
				default:
				}
				if v > 1<<40 {
					v = 1
				}
				h.Observe(v)
			}
		}(int64(w))
	}
	for i := 0; i < 20000; i++ {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		if !(1 <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
			close(stop)
			wg.Wait()
			t.Fatalf("snapshot %d out of order: count=%d p50=%d p95=%d p99=%d p999=%d max=%d",
				i, s.Count, s.P50, s.P95, s.P99, s.P999, s.Max)
		}
	}
	close(stop)
	wg.Wait()
}

func TestObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(5 * time.Millisecond)
	if h.Count() != 1 || h.Sum() != int64(5*time.Millisecond) {
		t.Fatal("ObserveDuration did not record nanoseconds")
	}
}

func TestSnapshotString(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("snapshot count = %d", s.Count)
	}
	if s.String() == "" {
		t.Fatal("empty snapshot string")
	}
}

func TestRegistryCreatesOnFirstUse(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a").Inc()
	if r.Counter("a").Value() != 2 {
		t.Fatal("registry did not return the same counter")
	}
	r.Gauge("b").Set(7)
	if r.Gauge("b").Value() != 7 {
		t.Fatal("registry did not return the same gauge")
	}
	r.Histogram("c").Observe(1)
	if r.Histogram("c").Count() != 1 {
		t.Fatal("registry did not return the same histogram")
	}
	names := r.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("names = %v", names)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("x").Inc()
				r.Histogram("y").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if r.Counter("x").Value() != 800 {
		t.Fatalf("x = %d", r.Counter("x").Value())
	}
	if r.Histogram("y").Count() != 800 {
		t.Fatalf("y count = %d", r.Histogram("y").Count())
	}
}

func TestBucketIndexMonotonic(t *testing.T) {
	prev := -1
	for v := int64(1); v < 1<<20; v = v*3/2 + 1 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotonic at %d", v)
		}
		prev = idx
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i)%100000 + 1)
	}
}
