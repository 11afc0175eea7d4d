package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func cfg() Config { return DefaultConfig() }

// missRatios runs MissRatiosInto on the default config into a fresh slice.
func missRatios(demands []*Demand) []float64 {
	out := make([]float64, len(demands))
	MissRatiosInto(cfg(), demands, out)
	return out
}

func TestSoloDemandKeepsSoloMissRatio(t *testing.T) {
	d := &Demand{RefsPerIns: 0.04, SoloMissRatio: 0.15, WorkingSetBytes: 2 << 20}
	got := missRatios([]*Demand{d, nil})
	if got[0] != 0.15 {
		t.Fatalf("solo miss ratio = %v, want 0.15", got[0])
	}
	if got[1] != 0 {
		t.Fatalf("idle core miss ratio = %v, want 0", got[1])
	}
}

func TestSmallWorkingSetsDoNotContend(t *testing.T) {
	// Two 1 MB working sets fit together in a 4 MB cache: no inflation.
	a := &Demand{RefsPerIns: 0.01, SoloMissRatio: 0.1, WorkingSetBytes: 1 << 20}
	b := &Demand{RefsPerIns: 0.01, SoloMissRatio: 0.1, WorkingSetBytes: 1 << 20}
	got := missRatios([]*Demand{a, b})
	if got[0] != 0.1 || got[1] != 0.1 {
		t.Fatalf("fitting working sets inflated: %v", got)
	}
}

func TestLargeWorkingSetsContend(t *testing.T) {
	a := &Demand{RefsPerIns: 0.04, SoloMissRatio: 0.15, WorkingSetBytes: 6 << 20}
	b := &Demand{RefsPerIns: 0.04, SoloMissRatio: 0.15, WorkingSetBytes: 6 << 20}
	got := missRatios([]*Demand{a, b})
	if got[0] <= 0.15 {
		t.Fatalf("co-running large working sets should inflate miss ratio: %v", got[0])
	}
	if got[0] != got[1] {
		t.Fatalf("symmetric demands got asymmetric ratios: %v", got)
	}
	if got[0] > 1 {
		t.Fatalf("miss ratio exceeded 1: %v", got[0])
	}
}

func TestIntenseCoRunnerHurtsMore(t *testing.T) {
	victim := &Demand{RefsPerIns: 0.02, SoloMissRatio: 0.1, WorkingSetBytes: 3 << 20}
	mild := &Demand{RefsPerIns: 0.005, SoloMissRatio: 0.1, WorkingSetBytes: 3 << 20}
	fierce := &Demand{RefsPerIns: 0.08, SoloMissRatio: 0.3, WorkingSetBytes: 8 << 20}
	withMild := missRatios([]*Demand{victim, mild})[0]
	withFierce := missRatios([]*Demand{victim, fierce})[0]
	if withFierce <= withMild {
		t.Fatalf("fierce co-runner (%v) should hurt more than mild (%v)", withFierce, withMild)
	}
}

func TestMissRatiosBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		ds := make([]*Demand, n)
		for i := range ds {
			ds[i] = &Demand{
				RefsPerIns:      r.Float64() * 0.1,
				SoloMissRatio:   r.Float64(),
				WorkingSetBytes: r.Float64() * float64(32<<20),
			}
		}
		for i, m := range missRatios(ds) {
			if m < ds[i].SoloMissRatio-1e-12 || m > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMoreCoRunnersMonotoneProperty(t *testing.T) {
	// Adding a co-runner never improves anyone's miss ratio.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() *Demand {
			return &Demand{
				RefsPerIns:      0.001 + r.Float64()*0.1,
				SoloMissRatio:   r.Float64() * 0.5,
				WorkingSetBytes: 1e5 + r.Float64()*16e6,
			}
		}
		a, b, c := mk(), mk(), mk()
		two := missRatios([]*Demand{a, b})[0]
		three := missRatios([]*Demand{a, b, c})[0]
		return three >= two-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPenaltyFactor(t *testing.T) {
	c := cfg()
	if got := PenaltyFactor(c, 0); got != 1 {
		t.Fatalf("no traffic penalty = %v", got)
	}
	if got := PenaltyFactor(c, c.BandwidthKnee); got != 1 {
		t.Fatalf("at-knee penalty = %v", got)
	}
	above := PenaltyFactor(c, c.BandwidthKnee*3)
	if above <= 1 {
		t.Fatalf("above-knee penalty = %v, want > 1", above)
	}
	higher := PenaltyFactor(c, c.BandwidthKnee*5)
	if higher <= above {
		t.Fatal("penalty factor not monotone in traffic")
	}
}

func TestCPIComposition(t *testing.T) {
	c := cfg()
	base := CPI(c, 1.0, 0, 0, 1)
	if base != 1.0 {
		t.Fatalf("no-memory CPI = %v", base)
	}
	solo := CPI(c, 1.0, 0.04, 0.15, 1)
	if solo <= base {
		t.Fatal("memory activity should raise CPI")
	}
	contended := CPI(c, 1.0, 0.04, 0.5, 1.3)
	if contended <= solo {
		t.Fatal("contention should raise CPI further")
	}
}

func TestCPIMonotoneInMissRatioProperty(t *testing.T) {
	c := cfg()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		refs := r.Float64() * 0.1
		m1 := r.Float64()
		m2 := m1 + (1-m1)*r.Float64()
		pf := 1 + r.Float64()
		return CPI(c, 1, refs, m2, pf) >= CPI(c, 1, refs, m1, pf)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPollutionCost(t *testing.T) {
	c := cfg()
	cy0, _, _ := PollutionCost(c, 0, 1)
	if cy0 != 0 {
		t.Fatalf("zero working set pollution = %v", cy0)
	}
	small, _, _ := PollutionCost(c, 1<<20, 1)
	big, refs, misses := PollutionCost(c, 16<<20, 1)
	if big <= small {
		t.Fatal("bigger working set should cost more pollution")
	}
	// Pollution is capped by cache capacity.
	huge, _, _ := PollutionCost(c, 64<<20, 1)
	if huge != big {
		t.Fatalf("pollution should cap at capacity: %v vs %v", huge, big)
	}
	if refs != misses {
		t.Fatal("each refill line should be one ref and one miss")
	}
	// Worst case costs tens of microseconds at 3 GHz — substantial against
	// a 5 ms re-scheduling interval but far below the paper's adversarial
	// 12 ms microbenchmark bound.
	us := big / 3e9 * 1e6
	if us < 10 || us > 1000 {
		t.Fatalf("worst-case pollution = %.2f us, expected tens-of-us scale", us)
	}
}
