// Package distance implements the request differencing measures of
// Section 4.1: the L1 distance with an unequal-length penalty (Equation 2),
// classic dynamic time warping (Equation 3), the paper's enhancement of DTW
// with an additional penalty on asynchronous warp steps, Levenshtein string
// edit distance over system call sequences (the Magpie approach), and the
// difference of whole-request average metric values (the paper's earlier
// signature work).
package distance

import (
	"math"
	"sync"

	"repro/internal/stats"
)

// Measure quantifies the difference between two requests' time-ordered
// metric value sequences (resampled to fixed-length periods).
type Measure interface {
	// Distance returns a non-negative dissimilarity; 0 for identical
	// sequences.
	Distance(x, y []float64) float64
	// Name identifies the measure in reports.
	Name() string
}

// L1 is Equation 2: element-wise absolute difference over the common
// prefix plus Penalty for each unmatched trailing element. The paper sets
// the penalty to a peak-level (99-percentile) metric difference for the
// application.
type L1 struct {
	Penalty float64
}

// Name implements Measure.
func (L1) Name() string { return "L1" }

// Distance implements Measure. Complexity O(max(m,n)).
func (d L1) Distance(x, y []float64) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Abs(x[i] - y[i])
	}
	return sum + float64(len(x)+len(y)-2*n)*d.Penalty
}

// DTW is the dynamic time warping distance (Equation 3): the minimum, over
// all valid warp paths, of the summed metric differences at the two
// pointers, where a warp step advances both pointers (synchronous) or one
// (asynchronous). AsyncPenalty, when positive, is added per asynchronous
// step — the paper's enhancement that prevents under-estimating request
// differences through no-cost time shifting. Complexity O(m·n).
type DTW struct {
	AsyncPenalty float64
}

// Name implements Measure.
func (d DTW) Name() string {
	if d.AsyncPenalty > 0 {
		return "DTW+asynchrony-penalty"
	}
	return "DTW"
}

// dtwScratch holds the two rolling DP rows so repeated Distance calls (the
// pairwise-matrix inner loop) allocate nothing.
type dtwScratch struct {
	prev, cur []float64
}

var dtwPool = sync.Pool{New: func() any { return new(dtwScratch) }}

func (s *dtwScratch) rows(n int) (prev, cur []float64) {
	if cap(s.prev) < n {
		s.prev = make([]float64, n)
		s.cur = make([]float64, n)
	}
	return s.prev[:n:n], s.cur[:n:n]
}

// Distance implements Measure.
func (d DTW) Distance(x, y []float64) float64 {
	m, n := len(x), len(y)
	switch {
	case m == 0 && n == 0:
		return 0
	case m == 0:
		// Every element of the non-empty side is consumed by an
		// asynchronous step against nothing: pay its magnitude (the metric
		// difference against an implicit zero) plus the per-step penalty,
		// consistent with the warp-path definition. Without the magnitude
		// term a zero penalty would declare any request identical to the
		// empty sequence.
		return sumAbs(y) + float64(n)*d.AsyncPenalty
	case n == 0:
		return sumAbs(x) + float64(m)*d.AsyncPenalty
	}
	// dp[j] holds the best path cost reaching (i, j); rolling rows keep
	// memory O(n). The rows come from a pool so the matrix engine's inner
	// loop allocates nothing.
	s := dtwPool.Get().(*dtwScratch)
	prev, cur := s.rows(n)
	v := d.exact(x, y, prev, cur)
	dtwPool.Put(s)
	return v
}

// dtwBlock is the number of DP rows the exact kernel advances per sweep
// over y; block is written out for this height. On the pipeline's CPI
// sequences (2-vCPU x86-64 Xeon) heights 2–5 ran within a few percent of
// each other and about 1.3× faster than one row at a time with the same
// cell; 4 was the fastest, and 6 or more spill registers.
const dtwBlock = 4

// cell is the DTW recurrence for one grid cell: its metric difference plus
// the cheapest predecessor, where the two asynchronous steps (advance x
// only, from up; advance y only, from left) also pay the penalty. The
// strict comparisons keep the synchronous candidate on ties, never let a
// NaN alternative win, and keep a NaN synchronous candidate. Both fills in
// exact evaluate every cell through this one expression, which is what
// makes the blocked fill bit-identical to a row-by-row fill.
//
// The comparisons select a candidate's bit pattern rather than the float
// itself, which lets the compiler use conditional moves instead of
// branches: on real CPI sequences which candidate wins changes too often
// for a branch predictor. The result is still exactly one of the
// candidates, chosen by the same float comparisons.
func cell(diag, up, left, diff, penalty float64) float64 {
	best := diag + diff
	alt := up + diff + penalty
	b, ab := math.Float64bits(best), math.Float64bits(alt)
	if alt < best {
		b = ab
	}
	best = math.Float64frombits(b)
	alt = left + diff + penalty
	ab = math.Float64bits(alt)
	if alt < best {
		b = ab
	}
	return math.Float64frombits(b)
}

// exact fills the whole m×n grid and returns the cost at its far corner.
//
// One sweep over y advances dtwBlock rows at once. Row i+r runs r columns
// behind row i, so every input a cell needs — up and diag from the row
// above, left from its own row — was produced at an earlier step of the
// same sweep and is held in a register. The rows' dependency chains are
// independent within a step, so the CPU overlaps them instead of waiting
// on one cell's adds and selects before starting the next. Only the
// block's last row is stored, into cur, which the next block reads as its
// prev. Rows left over after the last block, and every row of a grid too
// narrow for one, are filled one at a time.
func (d DTW) exact(x, y, prev, cur []float64) float64 {
	m, n := len(x), len(y)
	p := d.AsyncPenalty
	left := math.Abs(x[0] - y[0])
	prev[0] = left
	for j := 1; j < n; j++ {
		left = left + math.Abs(x[0]-y[j]) + p // not +=: keep (left+d)+p
		prev[j] = left
	}
	i := 1
	if n >= dtwBlock {
		for ; i+dtwBlock <= m; i += dtwBlock {
			d.block(x[i:i+dtwBlock], y, prev, cur)
			prev, cur = cur, prev
		}
	}
	for ; i < m; i++ {
		xi := x[i]
		left = prev[0] + math.Abs(xi-y[0]) + p
		cur[0] = left
		for j := 1; j < n; j++ {
			left = cell(prev[j-1], prev[j], left, math.Abs(xi-y[j]), p)
			cur[j] = left
		}
		prev, cur = cur, prev
	}
	return prev[n-1]
}

// block computes the four DP rows for x[0..3] below prev and stores the
// last of them in cur. Step t computes row r at column t−r: cR is row R's
// newest cell (the left input of its next one) and dR is the cell row R−1
// held one step earlier (row R's next diag). The first four steps start
// the rows one by one at column 0 and the last three finish them.
// len(y) ≥ 4.
func (d DTW) block(x, y, prev, cur []float64) {
	n := len(y)
	y, prev, cur = y[:n], prev[:n], cur[:n]
	p := d.AsyncPenalty
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var c0, c1, c2, c3, d1, d2, d3, n0, n1, n2, n3 float64

	c0 = prev[0] + math.Abs(x0-y[0]) + p

	n0 = cell(prev[0], prev[1], c0, math.Abs(x0-y[1]), p)
	c1 = c0 + math.Abs(x1-y[0]) + p
	d1 = c0
	c0 = n0

	n0 = cell(prev[1], prev[2], c0, math.Abs(x0-y[2]), p)
	n1 = cell(d1, c0, c1, math.Abs(x1-y[1]), p)
	c2 = c1 + math.Abs(x2-y[0]) + p
	d1, d2 = c0, c1
	c0, c1 = n0, n1

	n0 = cell(prev[2], prev[3], c0, math.Abs(x0-y[3]), p)
	n1 = cell(d1, c0, c1, math.Abs(x1-y[2]), p)
	n2 = cell(d2, c1, c2, math.Abs(x2-y[1]), p)
	c3 = c2 + math.Abs(x3-y[0]) + p
	cur[0] = c3
	d1, d2, d3 = c0, c1, c2
	c0, c1, c2 = n0, n1, n2

	for t := dtwBlock; t < n; t++ {
		n0 = cell(prev[t-1], prev[t], c0, math.Abs(x0-y[t]), p)
		n1 = cell(d1, c0, c1, math.Abs(x1-y[t-1]), p)
		n2 = cell(d2, c1, c2, math.Abs(x2-y[t-2]), p)
		n3 = cell(d3, c2, c3, math.Abs(x3-y[t-3]), p)
		cur[t-3] = n3
		d1, d2, d3 = c0, c1, c2
		c0, c1, c2, c3 = n0, n1, n2, n3
	}

	n1 = cell(d1, c0, c1, math.Abs(x1-y[n-1]), p)
	n2 = cell(d2, c1, c2, math.Abs(x2-y[n-2]), p)
	n3 = cell(d3, c2, c3, math.Abs(x3-y[n-3]), p)
	cur[n-3] = n3
	d2, d3 = c1, c2
	c1, c2, c3 = n1, n2, n3

	n2 = cell(d2, c1, c2, math.Abs(x2-y[n-1]), p)
	n3 = cell(d3, c2, c3, math.Abs(x3-y[n-2]), p)
	cur[n-2] = n3

	cur[n-1] = cell(c2, n2, n3, math.Abs(x3-y[n-1]), p)
}

func sumAbs(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += math.Abs(v)
	}
	return s
}

// AverageDiff compares only whole-request average metric values — the
// paper's prior average-value request signatures [27]. Inputs are treated
// as equal-length-period sequences whose mean is the request average.
type AverageDiff struct{}

// Name implements Measure.
func (AverageDiff) Name() string { return "average-metric" }

// Distance implements Measure.
func (AverageDiff) Distance(x, y []float64) float64 {
	return math.Abs(stats.Mean(x) - stats.Mean(y))
}

// Levenshtein is the string edit distance between two system call name
// sequences: the minimum number of insertions, deletions, or substitutions
// transforming one into the other (the Magpie software-event approach).
func Levenshtein(a, b []string) int {
	m, n := len(a), len(b)
	if m == 0 {
		return n
	}
	if n == 0 {
		return m
	}
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for j := 0; j <= n; j++ {
		prev[j] = j
	}
	for i := 1; i <= m; i++ {
		cur[0] = i
		for j := 1; j <= n; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost // substitute (or match)
			if alt := prev[j] + 1; alt < best {
				best = alt // delete from a
			}
			if alt := cur[j-1] + 1; alt < best {
				best = alt // insert into a
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// PeakPenalty computes the paper's penalty setting: the 99-percentile of
// the distribution of metric differences at two arbitrary points of
// application execution, estimated from the pooled resampled values of a
// request population by pairing values at a fixed stride.
func PeakPenalty(sequences [][]float64) float64 {
	var diffs []float64
	pool := make([]float64, 0, 256)
	for _, s := range sequences {
		pool = append(pool, s...)
	}
	if len(pool) < 2 {
		return 0
	}
	// Pair each value with one at a large co-prime stride: a deterministic
	// stand-in for "two arbitrary points". The stride must be co-prime with
	// the pool length or i → (i+stride) mod len cycles over a strict subset
	// of offsets (len 6, stride 4 visits only even gaps); start from the
	// half-length point and take the nearest co-prime stride.
	stride := nearestCoprime(len(pool)/2+1, len(pool))
	for i := range pool {
		j := (i + stride) % len(pool)
		diffs = append(diffs, math.Abs(pool[i]-pool[j]))
	}
	return stats.Percentile(diffs, 99)
}

// nearestCoprime returns the stride closest to want in [1, n) that is
// co-prime with n (ties prefer the smaller stride). n must be ≥ 2.
func nearestCoprime(want, n int) int {
	if want < 1 {
		want = 1
	}
	if want >= n {
		want = n - 1
	}
	for d := 0; ; d++ {
		if lo := want - d; lo >= 1 && gcd(lo, n) == 1 {
			return lo
		}
		if hi := want + d; hi < n && gcd(hi, n) == 1 {
			return hi
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
