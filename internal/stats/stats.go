// Package stats implements the statistical machinery the paper's analyses
// rely on: weighted coefficient of variation (Equation 1), weighted root
// mean square error (Equation 7), percentiles, and histograms.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// WeightedMean returns sum(w_i * x_i) / sum(w_i). Weights must be
// non-negative; a zero total weight yields 0.
func WeightedMean(values, weights []float64) float64 {
	if len(values) != len(weights) {
		panic("stats: WeightedMean length mismatch")
	}
	var num, den float64
	for i, v := range values {
		num += weights[i] * v
		den += weights[i]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// CoV implements the paper's Equation 1: the length-weighted coefficient of
// variation of metric values x_i measured over periods of lengths t_i,
// relative to the overall metric value xbar:
//
//	sqrt( sum(t_i (x_i - xbar)^2) / sum(t_i) ) / xbar
//
// The overall value xbar is the length-weighted mean of the x_i, which
// matches "the overall metric value for the whole execution" when lengths
// are the natural weights of the metric (e.g., instructions for CPI).
func CoV(values, lengths []float64) float64 {
	if len(values) != len(lengths) {
		panic("stats: CoV length mismatch")
	}
	xbar := WeightedMean(values, lengths)
	if xbar == 0 {
		return 0
	}
	var num, den float64
	for i, x := range values {
		d := x - xbar
		num += lengths[i] * d * d
		den += lengths[i]
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num/den) / xbar
}

// RMSE implements the paper's Equation 7: the length-weighted root mean
// square error between actual values x_i and predictions xhat_i over
// periods of lengths t_i.
func RMSE(actual, predicted, lengths []float64) float64 {
	if len(actual) != len(predicted) || len(actual) != len(lengths) {
		panic("stats: RMSE length mismatch")
	}
	var num, den float64
	for i := range actual {
		d := actual[i] - predicted[i]
		num += lengths[i] * d * d
		den += lengths[i]
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Histogram is a fixed-bin-width histogram over [Lo, Lo + Width*len(Counts)).
// It mirrors the probability histograms of the paper's Figure 1.
type Histogram struct {
	Lo     float64
	Width  float64
	Counts []int
	N      int // total samples including out-of-range ones
	Below  int // samples < Lo
	Above  int // samples >= Lo + Width*len(Counts)
}

// NewHistogram builds a histogram of xs with the given origin, bin width,
// and bin count.
func NewHistogram(xs []float64, lo, width float64, bins int) *Histogram {
	if width <= 0 || bins <= 0 {
		panic("stats: NewHistogram requires positive width and bins")
	}
	h := &Histogram{Lo: lo, Width: width, Counts: make([]int, bins)}
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.N++
	if x < h.Lo {
		h.Below++
		return
	}
	i := int((x - h.Lo) / h.Width)
	if i >= len(h.Counts) {
		h.Above++
		return
	}
	h.Counts[i]++
}

// Prob returns each bin's probability mass (count / total samples).
func (h *Histogram) Prob() []float64 {
	out := make([]float64, len(h.Counts))
	if h.N == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.N)
	}
	return out
}
