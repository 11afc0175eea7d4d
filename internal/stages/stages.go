// Package stages implements the staged-execution view the paper's related
// work discusses (Section 6): where SEDA requires programmers to mark
// request stages and Capriccio needs compiler support, the OS-level
// characterization of request behavior variations can transparently
// identify potential stage transitions and annotate each stage with its
// hardware execution characteristics.
//
// Segmentation is bottom-up: the resampled metric series starts as
// one-bucket segments which are greedily merged in order of least
// information loss (length-weighted variance increase), until either the
// target segment count is reached or no merge stays below the homogeneity
// tolerance. This respects the paper's observation that server requests do
// not form long stable phases — segments can be short, and a tolerance of 0
// simply returns the finest segmentation.
package stages

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Stage is one identified homogeneous stretch of a request's execution.
type Stage struct {
	// StartIns and EndIns delimit the stage in request progress
	// (application instructions).
	StartIns, EndIns float64
	// Mean is the stage's average metric value.
	Mean float64
	// Spread is the length-weighted standard deviation within the stage.
	Spread float64
}

func (s Stage) String() string {
	return fmt.Sprintf("[%.0f,%.0f) mean=%.3f sd=%.3f", s.StartIns, s.EndIns, s.Mean, s.Spread)
}

// Config tunes the segmentation.
type Config struct {
	// BucketIns is the resampling granularity.
	BucketIns float64
	// MaxStages caps the number of stages (0 = no cap).
	MaxStages int
	// Tolerance is the maximum relative within-stage standard deviation
	// (spread/mean) a merge may produce; merges beyond it stop the
	// process. 0 means merge only exactly-equal neighbors.
	Tolerance float64
}

// segment is the internal mergeable unit.
type segment struct {
	start, end float64 // bucket index range [start, end)
	n          float64 // total length (buckets)
	sum        float64 // Σ value·len
	sumsq      float64 // Σ value²·len
}

func (s segment) mean() float64 { return s.sum / s.n }

func (s segment) variance() float64 {
	m := s.mean()
	v := s.sumsq/s.n - m*m
	if v < 0 {
		return 0
	}
	return v
}

// cost is the segment's total squared deviation (length-weighted).
func (s segment) cost() float64 { return s.variance() * s.n }

func merge(a, b segment) segment {
	return segment{
		start: a.start, end: b.end,
		n: a.n + b.n, sum: a.sum + b.sum, sumsq: a.sumsq + b.sumsq,
	}
}

// Identify segments a request's metric-m series into stages.
func Identify(tr *trace.Request, m metrics.Metric, cfg Config) []Stage {
	if cfg.BucketIns <= 0 {
		panic("stages: Config.BucketIns must be positive")
	}
	values := tr.Resampled(m, cfg.BucketIns)
	return identifyValues(values, cfg)
}

func identifyValues(values []float64, cfg Config) []Stage {
	if len(values) == 0 {
		return nil
	}
	segs := make([]segment, len(values))
	for i, v := range values {
		segs[i] = segment{start: float64(i), end: float64(i + 1), n: 1, sum: v, sumsq: v * v}
	}
	target := cfg.MaxStages
	if target <= 0 {
		target = 1
	}
	for len(segs) > 1 {
		// Find the cheapest adjacent merge.
		best, bestInc := -1, math.Inf(1)
		for i := 0; i+1 < len(segs); i++ {
			inc := merge(segs[i], segs[i+1]).cost() - segs[i].cost() - segs[i+1].cost()
			if inc < bestInc {
				best, bestInc = i, inc
			}
		}
		cand := merge(segs[best], segs[best+1])
		withinTarget := cfg.MaxStages > 0 && len(segs) > cfg.MaxStages
		if !withinTarget {
			// Beyond the cap (or uncapped): merge only while homogeneity
			// holds.
			mean := cand.mean()
			rel := math.Inf(1)
			if mean != 0 {
				rel = math.Sqrt(cand.variance()) / math.Abs(mean)
			} else if cand.variance() == 0 {
				rel = 0
			}
			if rel > cfg.Tolerance {
				break
			}
		}
		segs[best] = cand
		segs = append(segs[:best+1], segs[best+2:]...)
	}
	out := make([]Stage, len(segs))
	for i, s := range segs {
		out[i] = Stage{
			StartIns: s.start * cfg.BucketIns,
			EndIns:   s.end * cfg.BucketIns,
			Mean:     s.mean(),
			Spread:   math.Sqrt(s.variance()),
		}
	}
	return out
}

// Annotate attaches each stage's characteristics for every derived metric,
// producing the transparent stage annotation the paper envisions.
type Annotated struct {
	Stage
	// Values holds each metric's stage mean.
	Values map[metrics.Metric]float64
}

// AnnotateAll identifies stages on a primary metric and annotates each with
// the stage means of all derived metrics.
func AnnotateAll(tr *trace.Request, primary metrics.Metric, cfg Config) []Annotated {
	sts := Identify(tr, primary, cfg)
	out := make([]Annotated, len(sts))
	series := map[metrics.Metric][]float64{}
	for _, m := range metrics.AllMetrics() {
		series[m] = tr.Resampled(m, cfg.BucketIns)
	}
	for i, st := range sts {
		a := Annotated{Stage: st, Values: map[metrics.Metric]float64{}}
		lo := int(st.StartIns / cfg.BucketIns)
		hi := int(st.EndIns / cfg.BucketIns)
		for _, m := range metrics.AllMetrics() {
			vals := series[m]
			if lo >= len(vals) {
				continue
			}
			end := hi
			if end > len(vals) {
				end = len(vals)
			}
			var sum float64
			for _, v := range vals[lo:end] {
				sum += v
			}
			if end > lo {
				a.Values[m] = sum / float64(end-lo)
			}
		}
		out[i] = a
	}
	return out
}
