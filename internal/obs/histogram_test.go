package obs

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramBucketsMonotone(t *testing.T) {
	// Bucket index must be monotone in the sample value and every value
	// must fall inside its own bucket's bounds.
	vals := []int64{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, math.MaxInt64}
	prev := -1
	for _, v := range vals {
		idx := histBucket(v)
		if idx < prev {
			t.Fatalf("bucket index not monotone: histBucket(%d)=%d after %d", v, idx, prev)
		}
		if idx >= histBuckets {
			t.Fatalf("histBucket(%d)=%d out of range", v, idx)
		}
		lo, hi := histBounds(idx)
		if uint64(v) < lo || uint64(v) > hi {
			t.Fatalf("value %d outside its bucket [%d,%d]", v, lo, hi)
		}
		prev = idx
	}
	if got := histBucket(-5); got != 0 {
		t.Fatalf("negative samples must clamp to bucket 0, got %d", got)
	}
}

func TestHistogramQuantileExactSmall(t *testing.T) {
	// Values 0-3 have exact single-value buckets: quantiles of a known
	// multiset are exact.
	h := NewHistogram("t")
	for i := 0; i < 90; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(3)
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := h.Quantile(0.99); got != 3 {
		t.Fatalf("p99 = %v, want 3", got)
	}
	if h.Count() != 100 || h.Max() != 3 {
		t.Fatalf("count/max = %d/%d", h.Count(), h.Max())
	}
}

func TestHistogramQuantileBoundedError(t *testing.T) {
	// Quarter-octave buckets bound the relative quantile error.
	h := NewHistogram("t")
	for v := int64(1); v <= 100000; v++ {
		h.Observe(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * 100000
		got := h.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.26 {
			t.Fatalf("q=%v: got %v want ~%v (rel err %.3f)", q, got, want, rel)
		}
	}
}

func TestHistogramNilAndEmpty(t *testing.T) {
	var h *Histogram
	h.Observe(5) // must not panic
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 || h.Name() != "" {
		t.Fatal("nil histogram must read as empty")
	}
	e := NewHistogram("e")
	if e.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestHistogramConcurrentDeterministic(t *testing.T) {
	// Counts commute: any interleaving of the same sample multiset yields
	// identical quantiles.
	serial := NewHistogram("s")
	conc := NewHistogram("c")
	for i := int64(0); i < 40000; i++ {
		serial.Observe(i % 977)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(w); i < 40000; i += 4 {
				conc.Observe(i % 977)
			}
		}(w)
	}
	wg.Wait()
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		if serial.Quantile(q) != conc.Quantile(q) {
			t.Fatalf("q=%v differs: %v vs %v", q, serial.Quantile(q), conc.Quantile(q))
		}
	}
}

func TestCollectorHistogramReport(t *testing.T) {
	c := New("test")
	h := NewHistogram("serve.identify_ns")
	c.RegisterHistogram(h)
	ext := NewHistogram("serve.sojourn_ns")
	c.RegisterHistogram(ext)
	c.RegisterHistogram(ext)                              // duplicate registration is a no-op
	c.RegisterHistogram(NewHistogram("serve.sojourn_ns")) // so is a duplicate name
	h.Observe(100)
	ext.Observe(200)
	rep := c.Report()
	if len(rep.Histograms) != 2 {
		t.Fatalf("want 2 histogram reports, got %d", len(rep.Histograms))
	}
	if rep.Histograms[0].Name != "serve.identify_ns" || rep.Histograms[0].Count != 1 {
		t.Fatalf("unexpected first histogram report %+v", rep.Histograms[0])
	}
	if rep.Histograms[1].MaxNs != 200 {
		t.Fatalf("registered histogram not reported: %+v", rep.Histograms[1])
	}
	var nilC *Collector
	nilC.RegisterHistogram(ext) // must not panic
}
