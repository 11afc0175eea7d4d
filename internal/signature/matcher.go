// Online identification fast path, part 1: the precomputed side. A
// Matcher freezes a Bank for streaming identification. Per entry it stores
// a piecewise-aggregate envelope — the pattern's bucket sums over fixed
// segments — which yields a cheap lower bound on the prefix-L1 distance:
// over any segment, sum |p_i − e_i| ≥ |sum p_i − sum e_i|. Sessions use the
// bound to filter candidates before touching exact per-bucket state.
package signature

// paaSegment is the envelope granularity in buckets. Eight trades bound
// tightness (coarser segments are looser) against evaluation cost (one
// subtraction per segment instead of eight).
const paaSegment = 8

// Matcher is an immutable view of a Bank prepared for streaming
// identification. It is safe for concurrent use: any number of Sessions
// may read it at once.
type Matcher struct {
	bank *Bank
	// segSums[e][k] is the sum of entry e's pattern buckets in segment k
	// (buckets [k·paaSegment, (k+1)·paaSegment) ∩ the pattern). Segments
	// past the pattern's end are implicitly zero.
	segSums [][]float64
}

// NewMatcher prepares a bank for streaming identification. The bank must
// not be mutated afterwards.
func NewMatcher(b *Bank) *Matcher {
	m := &Matcher{}
	m.Rebuild(b)
	return m
}

// Rebuild repoints the matcher at a (possibly new) bank, recomputing the
// envelope in place and reusing the segment-sum storage — repeated
// rebuilds over same-shaped banks reach an allocation-free steady state.
// Rebuild breaks the immutability contract for its duration: the caller
// must guarantee no Session is reading the matcher while it runs (the
// serving pipeline rebuilds only in its serial compaction phase, then
// rebinds every shard's session).
func (m *Matcher) Rebuild(b *Bank) {
	m.bank = b
	if cap(m.segSums) >= len(b.Entries) {
		m.segSums = m.segSums[:len(b.Entries)]
	} else {
		m.segSums = make([][]float64, len(b.Entries))
	}
	for e := range b.Entries {
		pat := b.Entries[e].Pattern
		ns := (len(pat) + paaSegment - 1) / paaSegment
		sums := m.segSums[e]
		if cap(sums) >= ns {
			sums = sums[:ns]
		} else {
			sums = make([]float64, ns)
		}
		for k := 0; k < ns; k++ {
			hi := min((k+1)*paaSegment, len(pat))
			var s float64
			for i := k * paaSegment; i < hi; i++ {
				s += pat[i]
			}
			sums[k] = s
		}
		m.segSums[e] = sums
	}
}

// Bank returns the matcher's underlying bank.
func (m *Matcher) Bank() *Bank { return m.bank }

// paaRemaining lower-bounds entry e's prefix-L1 contribution over buckets
// [done, ∞) given the prefix's complete-segment sums. Only segments fully
// inside the unaccumulated region count; the partial head and tail are
// bounded by zero. The bound also covers entries shorter than the prefix:
// a segment past the entry's end contributes |segment prefix sum|, which
// lower-bounds the sum of |p_i| penalties prefixL1 charges there.
func (m *Matcher) paaRemaining(e, done int, segPrefix []float64) float64 {
	segE := m.segSums[e]
	var lb float64
	for k := (done + paaSegment - 1) / paaSegment; k < len(segPrefix); k++ {
		var se float64
		if k < len(segE) {
			se = segE[k]
		}
		if d := segPrefix[k] - se; d < 0 {
			lb -= d
		} else {
			lb += d
		}
	}
	return lb
}
