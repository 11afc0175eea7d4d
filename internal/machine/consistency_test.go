package machine

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestProgressConsistentUnderCoRunnerChurn verifies the event-driven rate
// model: a core's accumulated instructions over a fixed wall time must
// equal the piecewise integral of its rates, even as co-runners come and
// go and change its rate mid-flight.
func TestProgressConsistentUnderCoRunnerChurn(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, DefaultConfig())
	victim := &Activity{BaseCPI: 1, RefsPerIns: 0.04, SoloMissRatio: 0.2, WorkingSetBytes: 8 << 20}
	m.SetActivity(0, victim)

	var expected float64
	last := sim.Time(0)
	lastRate := m.Rate(0)
	accrue := func() {
		now := eng.Now()
		expected += float64(now-last) / lastRate.NsPerIns
		last = now
		lastRate = m.Rate(0)
	}

	hog := &Activity{BaseCPI: 0.8, RefsPerIns: 0.06, SoloMissRatio: 0.3, WorkingSetBytes: 12 << 20}
	// Toggle a same-package co-runner on and off every 50 µs.
	for i := 1; i <= 10; i++ {
		i := i
		eng.At(sim.Time(i)*50*sim.Microsecond, func() {
			accrue()
			if i%2 == 1 {
				m.SetActivity(1, hog)
			} else {
				m.SetActivity(1, nil)
			}
			lastRate = m.Rate(0) // rate changed by the co-runner
		})
	}
	eng.At(600*sim.Microsecond, func() { accrue() })
	eng.RunAll()

	got := m.AppInstructions(0)
	if math.Abs(got-expected) > expected*0.001+5 {
		t.Fatalf("accumulated %.1f instructions, piecewise integral says %.1f", got, expected)
	}
	// Sanity: the churn actually changed the rate.
	m.SetActivity(1, hog)
	contended := m.Rate(0)
	m.SetActivity(1, nil)
	solo := m.Rate(0)
	if contended.CPI <= solo.CPI {
		t.Fatal("co-runner churn test never experienced contention")
	}
}

// TestCountersMonotoneUnderMixedEvents: counter registers never move
// backwards through any mix of activity changes, injections, and reads.
func TestCountersMonotoneUnderMixedEvents(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, DefaultConfig())
	g := sim.NewRNG(3)
	acts := []*Activity{
		{BaseCPI: 1, RefsPerIns: 0.01, SoloMissRatio: 0.1, WorkingSetBytes: 1 << 20},
		{BaseCPI: 2, RefsPerIns: 0.05, SoloMissRatio: 0.3, WorkingSetBytes: 8 << 20},
		nil,
	}
	prev := m.peekCounters(0)
	for i := 0; i < 200; i++ {
		switch g.Intn(3) {
		case 0:
			m.SetActivity(0, acts[g.Intn(len(acts))])
		case 1:
			snap, _ := m.ReadCounters(0, 0)
			_ = snap
		case 2:
			eng.After(sim.Time(g.Intn(100_000)), func() {})
			eng.RunAll()
		}
		cur := m.peekCounters(0)
		if cur.Cycles < prev.Cycles || cur.Instructions < prev.Instructions ||
			cur.L2Refs < prev.L2Refs || cur.L2Misses < prev.L2Misses {
			t.Fatalf("counters moved backwards at step %d: %v -> %v", i, prev, cur)
		}
		prev = cur
	}
}

// TestTimeToReachAfterStall: breakpoints computed right after an injection
// must include the stall.
func TestTimeToReachAfterStall(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, DefaultConfig())
	m.SetActivity(0, &Activity{BaseCPI: 1, RefsPerIns: 0.001, SoloMissRatio: 0.1, WorkingSetBytes: 64 << 10})
	stall := m.Inject(0, metrics.Counters{Cycles: 30000})
	d, ok := m.TimeToReach(0, 1000)
	if !ok {
		t.Fatal("TimeToReach !ok")
	}
	if d <= stall {
		t.Fatalf("breakpoint %v must include the %v stall", d, stall)
	}
	// Run exactly d: the target must be reached, not overshot wildly.
	eng.After(d, func() {})
	eng.RunAll()
	got := m.AppInstructions(0)
	if got < 1000 || got > 1010 {
		t.Fatalf("after stall-aware breakpoint, instructions = %v, want ~1000", got)
	}
}
