package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if s := StdDev(xs); !almost(s, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty-slice mean/std should be 0")
	}
}

func TestWeightedMean(t *testing.T) {
	v := []float64{1, 3}
	w := []float64{1, 3}
	if got := WeightedMean(v, w); !almost(got, 2.5, 1e-12) {
		t.Fatalf("WeightedMean = %v, want 2.5", got)
	}
	if got := WeightedMean([]float64{5}, []float64{0}); got != 0 {
		t.Fatalf("zero weight should yield 0, got %v", got)
	}
}

func TestCoVUniformIsZero(t *testing.T) {
	v := []float64{3, 3, 3}
	w := []float64{1, 10, 2}
	if got := CoV(v, w); got != 0 {
		t.Fatalf("CoV of constant series = %v, want 0", got)
	}
}

func TestCoVKnownValue(t *testing.T) {
	// Two equal-length periods with values 1 and 3: xbar = 2,
	// variance = ((1-2)^2 + (3-2)^2)/2 = 1, CoV = 1/2.
	got := CoV([]float64{1, 3}, []float64{1, 1})
	if !almost(got, 0.5, 1e-12) {
		t.Fatalf("CoV = %v, want 0.5", got)
	}
}

func TestCoVWeighting(t *testing.T) {
	// A long period at the mean plus a tiny deviant period should produce a
	// much smaller CoV than equal weighting.
	equal := CoV([]float64{1, 3}, []float64{1, 1})
	skewed := CoV([]float64{1, 3}, []float64{99, 1})
	if skewed >= equal {
		t.Fatalf("weighted CoV %v should be < unweighted %v", skewed, equal)
	}
}

func TestCoVNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		v := make([]float64, n)
		w := make([]float64, n)
		for i := range v {
			v[i] = r.Float64() * 10
			w[i] = r.Float64() + 0.01
		}
		return CoV(v, w) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRMSE(t *testing.T) {
	a := []float64{1, 2, 3}
	p := []float64{1, 2, 3}
	w := []float64{1, 1, 1}
	if got := RMSE(a, p, w); got != 0 {
		t.Fatalf("RMSE of perfect prediction = %v", got)
	}
	p2 := []float64{2, 3, 4}
	if got := RMSE(a, p2, w); !almost(got, 1, 1e-12) {
		t.Fatalf("RMSE = %v, want 1", got)
	}
	// Weighting: error only on a zero-weight period contributes nothing.
	if got := RMSE([]float64{1, 1}, []float64{1, 9}, []float64{1, 0}); got != 0 {
		t.Fatalf("zero-weight period affected RMSE: %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 0); got != 15 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 35 {
		t.Fatalf("p50 = %v", got)
	}
	// Interpolated: p25 over 5 points → rank 1.0 → 20.
	if got := Percentile(xs, 25); !almost(got, 20, 1e-12) {
		t.Fatalf("p25 = %v, want 20", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 90)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+r.Intn(50))
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	if Max(xs) != 9 || Max(nil) != 0 {
		t.Fatalf("Max = %v, Max(nil) = %v", Max(xs), Max(nil))
	}
	if got := Median([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Median = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1.05, 1.15, 1.15, 0.5, 9.9}, 1, 0.1, 5)
	if h.N != 5 {
		t.Fatalf("N = %d", h.N)
	}
	if h.Below != 1 || h.Above != 1 {
		t.Fatalf("Below/Above = %d/%d", h.Below, h.Above)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 {
		t.Fatalf("Counts = %v", h.Counts)
	}
	probs := h.Prob()
	if !almost(probs[1], 0.4, 1e-12) {
		t.Fatalf("Prob[1] = %v, want 0.4", probs[1])
	}
}

func TestHistogramProbSumsToAtMostOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHistogram(nil, 0, 0.5, 10)
		for i := 0; i < 200; i++ {
			h.Add(r.NormFloat64() * 3)
		}
		var sum float64
		for _, p := range h.Prob() {
			sum += p
		}
		return sum <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPanicsOnMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"WeightedMean": func() { WeightedMean([]float64{1}, []float64{1, 2}) },
		"CoV":          func() { CoV([]float64{1}, []float64{1, 2}) },
		"RMSE":         func() { RMSE([]float64{1}, []float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}
