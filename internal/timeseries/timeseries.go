// Package timeseries represents a request's time-ordered sequence of metric
// values, each measured over an execution period of some length (in
// instructions or time). It provides the resampling into fixed-length
// periods that the paper's differencing measures (Section 4.1) operate on,
// and the length-weighted summary statistics of Equation 1.
package timeseries

import (
	"fmt"

	"repro/internal/stats"
)

// Point is one measured period: a metric value held over Len units
// (instructions or nanoseconds, per the series' Unit).
type Point struct {
	Len   float64
	Value float64
}

// Unit describes what a Point's Len counts.
type Unit int

const (
	// Instructions means period lengths are retired instruction counts.
	Instructions Unit = iota
	// Nanos means period lengths are virtual nanoseconds.
	Nanos
)

func (u Unit) String() string {
	switch u {
	case Instructions:
		return "instructions"
	case Nanos:
		return "nanoseconds"
	default:
		return fmt.Sprintf("Unit(%d)", int(u))
	}
}

// Series is a time-ordered sequence of measured periods for one metric of
// one request execution.
type Series struct {
	Unit   Unit
	Points []Point
}

// New returns an empty series with the given unit.
func New(u Unit) *Series { return &Series{Unit: u} }

// Append adds a period. Zero-length periods are dropped — they carry no
// weight and would otherwise pollute resampling.
func (s *Series) Append(length, value float64) {
	if length <= 0 {
		return
	}
	s.Points = append(s.Points, Point{Len: length, Value: value})
}

// Len reports the number of periods.
func (s *Series) Len() int { return len(s.Points) }

// Values returns the period values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Value
	}
	return out
}

// Lengths returns the period lengths.
func (s *Series) Lengths() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Len
	}
	return out
}

// WeightedMean returns the length-weighted mean value — the overall metric
// value for the whole execution.
func (s *Series) WeightedMean() float64 {
	return stats.WeightedMean(s.Values(), s.Lengths())
}

// CoV returns the length-weighted coefficient of variation (Equation 1)
// over the series' periods.
func (s *Series) CoV() float64 {
	return stats.CoV(s.Values(), s.Lengths())
}

// Percentile returns the length-weighted p-th percentile of the values:
// the smallest value v such that periods with value <= v cover at least
// p% of the total length.
func (s *Series) Percentile(p float64) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	pts := make([]Point, len(s.Points))
	copy(pts, s.Points)
	// Sort by value.
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j].Value < pts[j-1].Value; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	total := 0.0
	for _, q := range pts {
		total += q.Len
	}
	target := p / 100 * total
	var cum float64
	for _, q := range pts {
		cum += q.Len
		if cum >= target {
			return q.Value
		}
	}
	return pts[len(pts)-1].Value
}

// Resample converts the series into consecutive fixed-length periods of the
// given length, averaging (length-weighted) the original values that fall in
// each bucket. The final partial bucket, if at least half full, is emitted
// too; shorter remainders are folded into the previous bucket's average.
// This produces the "sequence of measured metric values for fixed-length
// periods" that Section 4.1's distances consume.
func (s *Series) Resample(period float64) []float64 {
	if period <= 0 {
		panic("timeseries: Resample requires positive period")
	}
	if len(s.Points) == 0 {
		return nil
	}
	var out []float64
	var bucketLen, bucketSum float64 // sum of len*value within bucket
	flush := func() {
		if bucketLen > 0 {
			out = append(out, bucketSum/bucketLen)
		}
		bucketLen, bucketSum = 0, 0
	}
	for _, p := range s.Points {
		remaining := p.Len
		for remaining > 0 {
			space := period - bucketLen
			take := remaining
			if take > space {
				take = space
			}
			bucketLen += take
			bucketSum += take * p.Value
			remaining -= take
			if bucketLen >= period {
				flush()
			}
		}
	}
	if bucketLen >= period/2 {
		flush()
	} else if bucketLen > 0 && len(out) > 0 {
		// Fold the small remainder into the last bucket.
		last := out[len(out)-1]
		out[len(out)-1] = (last*period + bucketSum) / (period + bucketLen)
	} else if bucketLen > 0 {
		flush() // the whole series is shorter than half a period
	}
	return out
}

// Prefix returns a new series containing only the leading periods covering
// at most length units, truncating the period that crosses the boundary.
// Used for online partial-signature matching (Section 4.4).
func (s *Series) Prefix(length float64) *Series {
	out := New(s.Unit)
	var cum float64
	for _, p := range s.Points {
		if cum >= length {
			break
		}
		take := p.Len
		if cum+take > length {
			take = length - cum
		}
		out.Append(take, p.Value)
		cum += take
	}
	return out
}
