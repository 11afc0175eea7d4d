// Fixed-bucket latency histogram for the streaming pipeline's identify
// path. The bucket layout is static (quarter-octave log spacing over the
// full int64 nanosecond range), counts are atomic adds, and quantiles are
// computed only at report time — so Observe is lock-free, allocation-free,
// and commutative: concurrent observers produce the same final counts in
// any interleaving, which keeps histogram-derived outputs deterministic
// under parallel shard processing.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the bucket count for the quarter-octave layout: exact
// buckets for values 0–3, then four sub-buckets per power of two up to
// 2⁶³. Index is monotone in value, so cumulative walks are order-correct.
const histBuckets = 4 + 4*61

// Histogram is a fixed-bucket histogram of non-negative int64 samples
// (virtual nanoseconds, by convention). The zero of the API is a nil
// *Histogram, on which Observe is a no-op — hook sites mirror Counter.
type Histogram struct {
	name   string
	counts [histBuckets]atomic.Uint64
	total  atomic.Uint64
	max    atomic.Int64
}

// NewHistogram returns a standalone histogram (usable without a
// Collector; Collector.RegisterHistogram adds it to a run report).
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name}
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// histBucket maps a sample to its bucket index. Negative samples clamp to
// bucket 0.
func histBucket(v int64) int {
	if v < 4 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	u := uint64(v)
	e := bits.Len64(u) // ≥ 3
	sub := (u >> uint(e-3)) & 3
	return 4 + 4*(e-3) + int(sub)
}

// histBounds returns a bucket's inclusive value range.
func histBounds(idx int) (lo, hi uint64) {
	if idx < 4 {
		return uint64(idx), uint64(idx)
	}
	e := 3 + (idx-4)/4
	sub := uint64(idx-4) % 4
	lo = (4 + sub) << uint(e-3)
	return lo, lo + (1 << uint(e-3)) - 1
}

// Observe records one sample. Safe on a nil receiver and for concurrent
// use; never allocates.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[histBucket(v)].Add(1)
	h.total.Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of samples observed (0 for a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Max returns the largest sample observed (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile returns the q-quantile (q in [0,1], clamped) estimated by
// linear interpolation inside the holding bucket. Buckets 0–3 are exact;
// wider buckets bound the error by their quarter-octave width (≤ 25%
// relative). The result depends only on the final counts, so it is
// deterministic for a deterministic sample multiset regardless of
// observation order. Returns 0 for an empty (or nil) histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total-1)
	var cum float64
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo, hi := histBounds(i)
			if hi == lo {
				return float64(lo)
			}
			frac := (rank - cum + 0.5) / float64(c)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += float64(c)
	}
	return float64(h.max.Load())
}

// RegisterHistogram attaches an externally owned histogram to the
// collector's report (no-op on a nil collector or duplicate name). This
// lets a component keep observing — and reading quantiles from — its own
// histogram whether or not a collector is attached.
func (c *Collector) RegisterHistogram(h *Histogram) {
	if c == nil || h == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.histByNm[h.name]; ok {
		return
	}
	if c.histByNm == nil {
		c.histByNm = map[string]*Histogram{}
	}
	c.histByNm[h.name] = h
	c.hists = append(c.hists, h)
}
