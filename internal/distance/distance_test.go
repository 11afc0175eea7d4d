package distance

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSeq(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64() * 5
	}
	return out
}

func TestL1Basics(t *testing.T) {
	d := L1{Penalty: 10}
	if got := d.Distance([]float64{1, 2, 3}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("identical L1 = %v", got)
	}
	if got := d.Distance([]float64{1, 2}, []float64{2, 4}); got != 3 {
		t.Fatalf("L1 = %v, want 3", got)
	}
	// Unequal lengths: |m-n| × penalty added.
	if got := d.Distance([]float64{1, 2}, []float64{1, 2, 9, 9}); got != 20 {
		t.Fatalf("length penalty L1 = %v, want 20", got)
	}
}

func TestL1OverestimatesShiftedSequences(t *testing.T) {
	// The motivating case of Figure 6: a one-slot shift makes L1 large
	// while DTW stays small.
	x := []float64{1, 1, 5, 1, 1, 1}
	y := []float64{1, 1, 1, 5, 1, 1}
	l1 := L1{Penalty: 4}.Distance(x, y)
	dtw := DTW{}.Distance(x, y)
	if dtw >= l1 {
		t.Fatalf("DTW (%v) should be below L1 (%v) for shifted peaks", dtw, l1)
	}
	if l1 != 8 {
		t.Fatalf("L1 of shifted peak = %v, want 8", l1)
	}
	if dtw != 0 {
		t.Fatalf("plain DTW of shifted peak = %v, want 0 (free time shifting)", dtw)
	}
}

func TestDTWAsynchronyPenaltyRestoresCost(t *testing.T) {
	x := []float64{1, 1, 5, 1, 1, 1}
	y := []float64{1, 1, 1, 5, 1, 1}
	free := DTW{}.Distance(x, y)
	pen := DTW{AsyncPenalty: 0.5}.Distance(x, y)
	if pen <= free {
		t.Fatalf("asynchrony penalty should raise shifted-sequence cost: %v vs %v", pen, free)
	}
	// But still below L1's over-estimate.
	if l1 := (L1{Penalty: 4}).Distance(x, y); pen >= l1 {
		t.Fatalf("penalized DTW (%v) should stay below L1 (%v)", pen, l1)
	}
}

func TestDTWIdentityAndSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randSeq(r, 1+r.Intn(30))
		y := randSeq(r, 1+r.Intn(30))
		for _, d := range []Measure{DTW{}, DTW{AsyncPenalty: 0.7}, L1{Penalty: 2}} {
			if d.Distance(x, x) != 0 {
				return false
			}
			if math.Abs(d.Distance(x, y)-d.Distance(y, x)) > 1e-9 {
				return false
			}
			if d.Distance(x, y) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDTWLowerBoundsL1Property(t *testing.T) {
	// With zero penalties, DTW over equal-length sequences never exceeds
	// the plain element-wise L1 (the synchronous path is always available).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		x, y := randSeq(r, n), randSeq(r, n)
		return DTW{}.Distance(x, y) <= L1{}.Distance(x, y)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDTWEmptySequences(t *testing.T) {
	// The empty side pays each unmatched element's magnitude plus the
	// per-step asynchrony penalty.
	d := DTW{AsyncPenalty: 2}
	if got := d.Distance(nil, nil); got != 0 {
		t.Fatalf("empty-empty = %v", got)
	}
	if got := d.Distance(nil, []float64{1, 2}); got != 7 {
		t.Fatalf("empty-vs-2 = %v, want 1+2 + 2×penalty = 7", got)
	}
	if got := d.Distance([]float64{1}, nil); got != 3 {
		t.Fatalf("1-vs-empty = %v, want 1 + penalty = 3", got)
	}
}

func TestDTWEmptyVsNonEmptyNeverFree(t *testing.T) {
	// Regression: with AsyncPenalty == 0 the old base case returned 0,
	// declaring any request identical to the empty sequence.
	seq := []float64{1.5, 0.5, 3}
	for _, d := range []DTW{{}, {AsyncPenalty: 0.5}} {
		want := 5.0 + 3*d.AsyncPenalty
		if got := d.Distance(nil, seq); got != want {
			t.Errorf("%s empty-vs-seq = %v, want %v", d.Name(), got, want)
		}
		if got := d.Distance(seq, nil); got != want {
			t.Errorf("%s seq-vs-empty = %v, want %v", d.Name(), got, want)
		}
	}
}

func TestAverageDiff(t *testing.T) {
	d := AverageDiff{}
	if got := d.Distance([]float64{1, 3}, []float64{2, 2}); got != 0 {
		t.Fatalf("equal means = %v", got)
	}
	if got := d.Distance([]float64{1, 1}, []float64{3, 3}); got != 2 {
		t.Fatalf("AverageDiff = %v", got)
	}
	// Average-based differencing cannot see variation patterns: a flat and
	// a spiky sequence with equal means are "identical".
	flat := []float64{2, 2, 2, 2}
	spiky := []float64{0, 4, 0, 4}
	if d.Distance(flat, spiky) != 0 {
		t.Fatal("average diff should be blind to variation patterns")
	}
	if (DTW{}).Distance(flat, spiky) == 0 {
		t.Fatal("DTW should see the variation difference")
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b []string
		want int
	}{
		{nil, nil, 0},
		{[]string{"read"}, nil, 1},
		{nil, []string{"read", "write"}, 2},
		{[]string{"read", "write"}, []string{"read", "write"}, 0},
		{[]string{"read", "write"}, []string{"read", "stat"}, 1},
		{[]string{"a", "b", "c"}, []string{"b", "c", "d"}, 2},
		{[]string{"poll", "read", "writev"}, []string{"read", "writev", "poll"}, 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinTriangleProperty(t *testing.T) {
	words := []string{"read", "write", "open", "poll"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() []string {
			s := make([]string, r.Intn(8))
			for i := range s {
				s[i] = words[r.Intn(len(words))]
			}
			return s
		}
		a, b, c := mk(), mk(), mk()
		ab, bc, ac := Levenshtein(a, b), Levenshtein(b, c), Levenshtein(a, c)
		return ac <= ab+bc && ab == Levenshtein(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPeakPenalty(t *testing.T) {
	// Constant sequences have zero differences everywhere.
	if got := PeakPenalty([][]float64{{2, 2}, {2, 2, 2}}); got != 0 {
		t.Fatalf("constant PeakPenalty = %v", got)
	}
	// A bimodal population's 99th-percentile pairwise difference is near
	// the mode gap.
	seqs := [][]float64{{0, 0, 0, 10, 10, 0, 0, 10}}
	got := PeakPenalty(seqs)
	if got < 5 || got > 10 {
		t.Fatalf("bimodal PeakPenalty = %v, want near 10", got)
	}
	if PeakPenalty(nil) != 0 {
		t.Fatal("empty PeakPenalty should be 0")
	}
}

func TestNearestCoprimeAwkwardLengths(t *testing.T) {
	// The old stride len/2+1 shares a factor with the pool length on
	// awkward lengths (len 6 → stride 4), cycling over a subset of pairs.
	for n := 2; n <= 64; n++ {
		s := nearestCoprime(n/2+1, n)
		if s < 1 || s >= n {
			t.Fatalf("n=%d: stride %d out of range", n, s)
		}
		if gcd(s, n) != 1 {
			t.Fatalf("n=%d: stride %d not co-prime", n, s)
		}
		// A co-prime stride makes i → (i+s) mod n a single full cycle.
		seen := make([]bool, n)
		i := 0
		for range seen {
			if seen[i] {
				t.Fatalf("n=%d stride %d revisits %d before covering", n, s, i)
			}
			seen[i] = true
			i = (i + s) % n
		}
	}
	if got := nearestCoprime(4, 6); got != 5 {
		t.Fatalf("nearestCoprime(4,6) = %d, want 5", got)
	}
}

func TestPeakPenaltyCoversAllOffsets(t *testing.T) {
	// Pool of length 6 where even-offset pairs all differ by 0 and the
	// co-prime stride is needed to see any difference: [0 1 0 1 0 1]. The
	// old stride 4 (even) paired equal values only → penalty 0.
	got := PeakPenalty([][]float64{{0, 1, 0}, {1, 0, 1}})
	if got != 1 {
		t.Fatalf("alternating-pool PeakPenalty = %v, want 1", got)
	}
}

func TestMeasureNames(t *testing.T) {
	if (L1{}).Name() != "L1" ||
		(DTW{}).Name() != "DTW" ||
		(DTW{AsyncPenalty: 1}).Name() != "DTW+asynchrony-penalty" ||
		(AverageDiff{}).Name() != "average-metric" {
		t.Fatal("measure names wrong")
	}
}
