package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// totalLen is the sum of s's period lengths.
func totalLen(s *Series) float64 {
	var t float64
	for _, p := range s.Points {
		t += p.Len
	}
	return t
}

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func build(pts ...[2]float64) *Series {
	s := New(Instructions)
	for _, p := range pts {
		s.Append(p[0], p[1])
	}
	return s
}

func TestAppendDropsZeroLength(t *testing.T) {
	s := New(Instructions)
	s.Append(0, 5)
	s.Append(-1, 5)
	s.Append(10, 5)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestTotalLenAndValues(t *testing.T) {
	s := build([2]float64{10, 1}, [2]float64{20, 2})
	if got := totalLen(s); got != 30 {
		t.Fatalf("TotalLen = %v", got)
	}
	v := s.Values()
	l := s.Lengths()
	if v[0] != 1 || v[1] != 2 || l[0] != 10 || l[1] != 20 {
		t.Fatalf("Values/Lengths = %v/%v", v, l)
	}
}

func TestWeightedMean(t *testing.T) {
	s := build([2]float64{10, 1}, [2]float64{30, 3})
	if got := s.WeightedMean(); !almost(got, 2.5, 1e-12) {
		t.Fatalf("WeightedMean = %v, want 2.5", got)
	}
}

func TestCoVConstantZero(t *testing.T) {
	s := build([2]float64{5, 2}, [2]float64{50, 2}, [2]float64{1, 2})
	if got := s.CoV(); got != 0 {
		t.Fatalf("CoV of constant = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	// 90 units at value 1, 10 units at value 5: p50 = 1, p95 = 5.
	s := build([2]float64{90, 1}, [2]float64{10, 5})
	if got := s.Percentile(50); got != 1 {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(95); got != 5 {
		t.Fatalf("p95 = %v", got)
	}
	if got := New(Nanos).Percentile(90); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
}

func TestPercentileOrderIndependent(t *testing.T) {
	a := build([2]float64{10, 5}, [2]float64{90, 1})
	b := build([2]float64{90, 1}, [2]float64{10, 5})
	if a.Percentile(95) != b.Percentile(95) {
		t.Fatal("Percentile depends on insertion order")
	}
}

func TestResampleExact(t *testing.T) {
	// Two 50-unit periods resampled at 25 → four buckets [1,1,2,2].
	s := build([2]float64{50, 1}, [2]float64{50, 2})
	got := s.Resample(25)
	want := []float64{1, 1, 2, 2}
	if len(got) != len(want) {
		t.Fatalf("Resample len = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if !almost(got[i], want[i], 1e-12) {
			t.Fatalf("Resample = %v, want %v", got, want)
		}
	}
}

func TestResampleSplitsAcrossBoundary(t *testing.T) {
	// 30 units at 1, 30 at 3, period 20: buckets are [1, (10*1+10*3)/20=2, 3].
	s := build([2]float64{30, 1}, [2]float64{30, 3})
	got := s.Resample(20)
	want := []float64{1, 2, 3}
	for i := range want {
		if !almost(got[i], want[i], 1e-12) {
			t.Fatalf("Resample = %v, want %v", got, want)
		}
	}
}

func TestResampleRemainderFolding(t *testing.T) {
	// 105 units, period 20: five full buckets + 5-unit remainder (< half) →
	// folded into the last bucket, total 5 buckets.
	s := build([2]float64{105, 2})
	got := s.Resample(20)
	if len(got) != 5 {
		t.Fatalf("len = %d, want 5", len(got))
	}
	// 115 units: remainder 15 >= half → emitted, 6 buckets.
	s2 := build([2]float64{115, 2})
	if got2 := s2.Resample(20); len(got2) != 6 {
		t.Fatalf("len = %d, want 6", len(got2))
	}
}

func TestResampleShortSeries(t *testing.T) {
	s := build([2]float64{3, 7})
	got := s.Resample(100)
	if len(got) != 1 || !almost(got[0], 7, 1e-12) {
		t.Fatalf("short series Resample = %v", got)
	}
	if New(Instructions).Resample(10) != nil {
		t.Fatal("empty series should resample to nil")
	}
}

func TestResamplePreservesWeightedMeanProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New(Instructions)
		for i := 0; i < 5+r.Intn(30); i++ {
			s.Append(1+r.Float64()*100, r.Float64()*5)
		}
		period := totalLen(s) / float64(3+r.Intn(10))
		vals := s.Resample(period)
		if len(vals) == 0 {
			return false
		}
		// The resampled mean approximates the weighted mean: buckets are
		// nearly equal-length so a plain mean is close.
		var sum float64
		for _, v := range vals {
			sum += v
		}
		got := sum / float64(len(vals))
		return math.Abs(got-s.WeightedMean()) < 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestResampleValuesWithinRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New(Instructions)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 3+r.Intn(20); i++ {
			v := r.Float64() * 10
			s.Append(1+r.Float64()*50, v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		for _, v := range s.Resample(17) {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestResamplePanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Resample(0) did not panic")
		}
	}()
	build([2]float64{1, 1}).Resample(0)
}

func TestPrefix(t *testing.T) {
	s := build([2]float64{10, 1}, [2]float64{10, 2}, [2]float64{10, 3})
	p := s.Prefix(15)
	if p.Len() != 2 {
		t.Fatalf("Prefix len = %d", p.Len())
	}
	if totalLen(p) != 15 {
		t.Fatalf("Prefix length = %v", totalLen(p))
	}
	if p.Points[1].Len != 5 || p.Points[1].Value != 2 {
		t.Fatalf("Prefix truncation wrong: %+v", p.Points[1])
	}
	// Prefix longer than series returns everything.
	if got := totalLen(s.Prefix(1e9)); got != 30 {
		t.Fatalf("long Prefix length = %v", got)
	}
}

func TestUnitString(t *testing.T) {
	if Instructions.String() != "instructions" || Nanos.String() != "nanoseconds" {
		t.Fatal("Unit strings wrong")
	}
	if Unit(9).String() == "" {
		t.Fatal("unknown unit empty string")
	}
}
