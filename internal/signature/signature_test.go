package signature

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/distance"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// mkTrace builds a trace with a refs/ins profile and a CPU time scale.
func mkTrace(id uint64, typ string, refs []float64, cpuScale float64) *trace.Request {
	tr := &trace.Request{ID: id, App: "a", Type: typ}
	for _, r := range refs {
		const ins = 100_000
		lr := uint64(r * ins)
		tr.AddPeriod(sim.Time(1000*cpuScale), metrics.Counters{
			Cycles: 2 * ins, Instructions: ins, L2Refs: lr, L2Misses: lr / 5,
		})
	}
	return tr
}

func buildBank(t *testing.T) *Bank {
	t.Helper()
	// Two families: "light" short requests with low refs, "heavy" long
	// requests with a recognizable ramp.
	var traces []*trace.Request
	for i := uint64(0); i < 10; i++ {
		traces = append(traces, mkTrace(i, "light", []float64{0.005, 0.006, 0.005}, 1))
	}
	for i := uint64(10); i < 20; i++ {
		traces = append(traces,
			mkTrace(i, "heavy", []float64{0.01, 0.03, 0.05, 0.05, 0.05, 0.05}, 4))
	}
	return Build(traces, metrics.L2RefsPerIns, 100_000, 500)
}

func TestBuildSetsMedianThreshold(t *testing.T) {
	b := buildBank(t)
	if len(b.Entries) != 20 {
		t.Fatalf("entries = %d", len(b.Entries))
	}
	// Light requests: 3 periods × 1000 = 3000; heavy: 6 × 4000 = 24000.
	if b.ThresholdNs <= 3000 || b.ThresholdNs >= 24000 {
		t.Fatalf("threshold %v should separate the families", b.ThresholdNs)
	}
}

func TestBuildRespectsMaxEntries(t *testing.T) {
	var traces []*trace.Request
	for i := uint64(0); i < 30; i++ {
		traces = append(traces, mkTrace(i, "x", []float64{0.01}, 1))
	}
	b := Build(traces, metrics.L2RefsPerIns, 100_000, 10)
	if len(b.Entries) != 10 {
		t.Fatalf("maxEntries not respected: %d", len(b.Entries))
	}
}

func TestIdentifyPatternFromPrefix(t *testing.T) {
	b := buildBank(t)
	// A heavy request observed for only its first two buckets: the ramp
	// start distinguishes it from light requests.
	prefix := []float64{0.011, 0.029}
	idx := b.IdentifyPattern(prefix)
	if idx < 0 || b.Entries[idx].Type != "heavy" {
		t.Fatalf("prefix matched %d (%s), want a heavy entry", idx, b.Entries[idx].Type)
	}
	if !b.PredictHighUsage(prefix) {
		t.Fatal("heavy prefix should predict high usage")
	}
	lightPrefix := []float64{0.0052, 0.0058}
	if b.PredictHighUsage(lightPrefix) {
		t.Fatal("light prefix should predict low usage")
	}
}

func TestIdentifyAverageBaseline(t *testing.T) {
	b := buildBank(t)
	idx := b.IdentifyAverage(0.0415) // heavy requests' average refs/ins
	if idx < 0 || b.Entries[idx].Type != "heavy" {
		t.Fatalf("average matched %s, want heavy", b.Entries[idx].Type)
	}
	if !b.PredictHighUsageByAverage(0.0415) {
		t.Fatal("heavy average should predict high usage")
	}
	if b.PredictHighUsageByAverage(0.0053) {
		t.Fatal("light average should predict low usage")
	}
}

func TestAverageSignatureBlindToPattern(t *testing.T) {
	// Two signatures with identical averages but different shapes: the
	// pattern matcher separates them, the average matcher cannot — the
	// paper's core argument for variation-driven signatures.
	flat := mkTrace(1, "flat", []float64{0.03, 0.03, 0.03, 0.03}, 1)
	ramp := mkTrace(2, "ramp", []float64{0.0, 0.02, 0.04, 0.06}, 10)
	b := Build([]*trace.Request{flat, ramp}, metrics.L2RefsPerIns, 100_000, 0)
	if math.Abs(b.Entries[0].Average-b.Entries[1].Average) > 0.002 {
		t.Fatalf("averages should be nearly equal: %v vs %v",
			b.Entries[0].Average, b.Entries[1].Average)
	}
	idx := b.IdentifyPattern([]float64{0.001, 0.019, 0.041})
	if b.Entries[idx].Type != "ramp" {
		t.Fatalf("pattern matching picked %s, want ramp", b.Entries[idx].Type)
	}
}

func TestEmptyBank(t *testing.T) {
	b := &Bank{}
	if b.IdentifyPattern([]float64{1}) != -1 {
		t.Fatal("empty bank should return -1")
	}
	if b.PredictHighUsage([]float64{1}) {
		t.Fatal("empty bank should predict false")
	}
	if b.IdentifyAverage(1) != -1 || b.PredictHighUsageByAverage(1) {
		t.Fatal("empty bank average identification should be -1/false")
	}
}

func TestPrefixL1ShortEntryPenalized(t *testing.T) {
	long := []float64{1, 1, 1, 1}
	short := []float64{1, 1}
	if got := prefixL1(long, short); got != 2 {
		t.Fatalf("short entry penalty = %v, want 2", got)
	}
	if got := prefixL1(short, long); got != 0 {
		t.Fatalf("prefix shorter than entry should match overlap only: %v", got)
	}
}

// TestIdentifyPatternScoredMatchesPlainScan: the reference scan, the
// column sweep and a Session fed bucket by bucket all return the same
// index and bitwise the same distance as a plain PatternDistance scan
// keeping the first strict minimum. Banks of 0–11 entries (so every
// remainder of the sweep's four-entry blocks) mix NaN, ±Inf and −0
// buckets, exact ties (small integers and duplicated entries) and empty
// patterns; patterns reach 40 buckets, and prefixes run from empty to past
// every entry, so the session crosses from store rows into the tail. One
// Columns serves every trial, so each bank overwrites a wider or narrower
// one; the session is checked after every bucket of the prefix.
func TestIdentifyPatternScoredMatchesPlainScan(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	r := rand.New(rand.NewSource(5))
	pattern := func(odd bool) []float64 {
		p := make([]float64, r.Intn(41))
		for i := range p {
			p[i] = float64(r.Intn(4))
			if odd && r.Intn(16) == 0 {
				p[i] = specials[r.Intn(len(specials))]
			}
		}
		return p
	}
	plain := func(b *Bank, prefix []float64) (int, float64) {
		best, bestD := -1, math.Inf(1)
		for i, e := range b.Entries {
			if d := PatternDistance(prefix, e.Pattern); d < bestD {
				best, bestD = i, d
			}
		}
		return best, bestD
	}
	cols := NewColumns(0, 0)
	for trial := 0; trial < 2000; trial++ {
		odd := trial%2 == 1
		b := &Bank{}
		for n := r.Intn(12); len(b.Entries) < n; {
			p := pattern(odd)
			if len(b.Entries) > 0 && r.Intn(4) == 0 {
				p = b.Entries[r.Intn(len(b.Entries))].Pattern
			}
			b.Entries = append(b.Entries, Entry{Pattern: p})
		}
		prefix := pattern(odd)
		want, wantD := plain(b, prefix)
		got, gotD := b.IdentifyPatternScored(prefix)
		if got != want || !sameFloat(gotD, wantD) {
			t.Fatalf("trial %d: scored (%d, %v), plain scan (%d, %v); prefix %v", trial, got, gotD, want, wantD, prefix)
		}
		cols.Set(b.Entries)
		if got, gotD := cols.Identify(prefix); got != want || !sameFloat(gotD, wantD) {
			t.Fatalf("trial %d: columns (%d, %v), plain scan (%d, %v); prefix %v", trial, got, gotD, want, wantD, prefix)
		}
		s := NewMatcher(b).NewSession()
		for i := 0; i <= len(prefix); i++ {
			if i > 0 {
				s.Extend(prefix[i-1])
			}
			want, wantD := plain(b, prefix[:i])
			if got := s.Best(); got != want || !sameFloat(s.bestD, wantD) {
				t.Fatalf("trial %d bucket %d: session (%d, %v), plain scan (%d, %v); prefix %v", trial, i, got, s.bestD, want, wantD, prefix[:i])
			}
		}
	}
}

// sameFloat reports whether a and b have the same bits or are both NaN
// (Go leaves a NaN result's payload unspecified).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// TestPatternDistanceArgumentOrder pins the distance's asymmetry — only the
// first argument's tail is charged — and PatternMatrix's orientation: cell
// (i < j) is PatternDistance(pats[i], pats[j]). A kernel that swapped the
// arguments would flip both matrix cells below.
func TestPatternDistanceArgumentOrder(t *testing.T) {
	short, long := []float64{1, 2}, []float64{1, 2, 3}
	if got := PatternDistance(short, long); got != 0 {
		t.Fatalf("d([1,2],[1,2,3]) = %v, want 0", got)
	}
	if got := PatternDistance(long, short); got != 3 {
		t.Fatalf("d([1,2,3],[1,2]) = %v, want 3", got)
	}
	var pm PatternMatrix
	var dm distance.Matrix
	for _, tc := range []struct {
		pats [][]float64
		want float64
	}{
		{[][]float64{short, long}, 0},
		{[][]float64{long, short}, 3},
	} {
		pm.Fill(&dm, tc.pats)
		if got := dm.At(0, 1); got != tc.want {
			t.Fatalf("matrix over %v: cell (0,1) = %v, want d(pats[0], pats[1]) = %v", tc.pats, got, tc.want)
		}
	}
}

func TestPastRequests(t *testing.T) {
	p := NewPastRequests(3)
	if p.PredictHigh(10) {
		t.Fatal("empty window should predict false")
	}
	p.Observe(100)
	if !p.PredictHigh(10) {
		t.Fatal("window mean 100 > 10 should predict high")
	}
	// Window slides: old high value evicted by low ones.
	p.Observe(1)
	p.Observe(1)
	p.Observe(1)
	if p.PredictHigh(10) {
		t.Fatal("window should have slid past the high value")
	}
}
