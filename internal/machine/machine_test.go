package machine

import (
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// peekCounters returns core's counters without any observer effect: the
// simulation's omniscient view, unavailable on real hardware.
func (m *Machine) peekCounters(coreID int) metrics.Counters {
	c := m.cores[coreID]
	m.advance(c)
	return c.hw.snapshot()
}

func newTestMachine() (*sim.Engine, *Machine) {
	eng := sim.NewEngine()
	return eng, New(eng, DefaultConfig())
}

func cpuBound() *Activity {
	return &Activity{BaseCPI: 1.0, RefsPerIns: 0.001, SoloMissRatio: 0.05, WorkingSetBytes: 64 << 10}
}

func memBound() *Activity {
	return &Activity{BaseCPI: 0.8, RefsPerIns: 0.05, SoloMissRatio: 0.2, WorkingSetBytes: 8 << 20}
}

// run advances the engine clock by d using a no-op event.
func run(eng *sim.Engine, d sim.Time) {
	eng.After(d, func() {})
	eng.RunAll()
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.Topology = Topology{}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "Topology") {
		t.Fatalf("empty topology: err = %v, want one naming Topology", err)
	}
	bad = DefaultConfig()
	bad.Topology = Homogeneous(0, 2)
	if bad.Validate() == nil {
		t.Fatal("zero cores should be invalid")
	}
	bad = DefaultConfig()
	bad.CyclesPerNs = 0
	if bad.Validate() == nil {
		t.Fatal("zero frequency should be invalid")
	}
	if DefaultConfig().Validate() != nil {
		t.Fatal("default config should validate")
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(sim.NewEngine(), Config{})
}

func TestTopology(t *testing.T) {
	_, m := newTestMachine()
	if m.NumCores() != 4 {
		t.Fatalf("NumCores = %d", m.NumCores())
	}
	pkgs := []int{0, 0, 1, 1}
	for i, want := range pkgs {
		if got := m.Package(i); got != want {
			t.Fatalf("Package(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestIdleCoreAccruesNothing(t *testing.T) {
	eng, m := newTestMachine()
	run(eng, sim.Millisecond)
	c := m.peekCounters(0)
	if !c.IsZero() {
		t.Fatalf("idle core accrued %v", c)
	}
}

func TestExecutionAccruesCounters(t *testing.T) {
	eng, m := newTestMachine()
	m.SetActivity(0, cpuBound())
	run(eng, sim.Millisecond)
	c := m.peekCounters(0)
	if c.Instructions == 0 || c.Cycles == 0 {
		t.Fatalf("no progress: %v", c)
	}
	// CPI should be near the configured rate.
	gotCPI := c.Value(metrics.CPI)
	wantCPI := m.Rate(0).CPI
	if math.Abs(gotCPI-wantCPI) > 0.01 {
		t.Fatalf("CPI = %v, rate says %v", gotCPI, wantCPI)
	}
	// 1 ms at 3 GHz is 3M cycles.
	if c.Cycles < 2_900_000 || c.Cycles > 3_100_000 {
		t.Fatalf("cycles in 1 ms = %d, want ~3M", c.Cycles)
	}
}

func TestRefsAndMissesFollowActivity(t *testing.T) {
	eng, m := newTestMachine()
	a := memBound()
	m.SetActivity(1, a)
	run(eng, sim.Millisecond)
	c := m.peekCounters(1)
	if got := c.Value(metrics.L2RefsPerIns); math.Abs(got-a.RefsPerIns) > 0.001 {
		t.Fatalf("refs/ins = %v, want %v", got, a.RefsPerIns)
	}
	if got := c.Value(metrics.L2MissRatio); math.Abs(got-a.SoloMissRatio) > 0.01 {
		t.Fatalf("solo miss ratio = %v, want %v", got, a.SoloMissRatio)
	}
}

func TestSoloVsContendedCPI(t *testing.T) {
	eng, m := newTestMachine()
	m.SetActivity(0, memBound())
	solo := m.Rate(0).CPI
	// Co-schedule another memory hog on the same package (core 1).
	m.SetActivity(1, memBound())
	contended := m.Rate(0).CPI
	if contended <= solo {
		t.Fatalf("contended CPI %v should exceed solo %v", contended, solo)
	}
	// A CPU-bound activity on the *other* package should barely matter for
	// cache share (bandwidth is machine-wide but tiny here).
	m.SetActivity(1, nil)
	m.SetActivity(2, cpuBound())
	crossPkg := m.Rate(0).CPI
	if math.Abs(crossPkg-solo) > 0.2*solo {
		t.Fatalf("cross-package CPU-bound co-runner changed CPI %v -> %v", solo, crossPkg)
	}
	_ = eng
}

func TestRateChangeListenerFires(t *testing.T) {
	_, m := newTestMachine()
	var notified []int
	m.OnRateChange(func(c int) { notified = append(notified, c) })
	m.SetActivity(0, memBound())
	notified = nil
	// Installing a contending activity on core 1 changes core 0's rate.
	m.SetActivity(1, memBound())
	found := false
	for _, c := range notified {
		if c == 0 {
			found = true
		}
		if c == 1 {
			t.Fatal("listener fired for the core being set")
		}
	}
	if !found {
		t.Fatal("listener did not fire for affected co-runner")
	}
}

// TestSetActivityAllocatesNothing: recomputeRates reuses one changed-core
// buffer, so activity churn that notifies co-runners allocates nothing.
func TestSetActivityAllocatesNothing(t *testing.T) {
	_, m := newTestMachine()
	notified := 0
	m.OnRateChange(func(int) { notified++ })
	mem, cpu := memBound(), cpuBound()
	allocs := testing.AllocsPerRun(100, func() {
		m.SetActivity(0, mem)
		m.SetActivity(1, mem)
		m.SetActivity(2, cpu)
		m.SetActivity(1, nil)
		m.SetActivity(0, nil)
		m.SetActivity(2, nil)
	})
	if allocs != 0 {
		t.Fatalf("SetActivity churn allocates %v objects per run, want 0", allocs)
	}
	if notified == 0 {
		t.Fatal("churn never notified a co-runner; the test exercises nothing")
	}
}

func TestAppInstructionsAndTimeToReach(t *testing.T) {
	eng, m := newTestMachine()
	m.SetActivity(0, cpuBound())
	d, ok := m.TimeToReach(0, 1_000_000)
	if !ok {
		t.Fatal("TimeToReach on running core returned !ok")
	}
	run(eng, d)
	got := m.AppInstructions(0)
	if got < 1_000_000 || got > 1_001_000 {
		t.Fatalf("AppInstructions after TimeToReach = %v, want ~1M", got)
	}
	// Already reached → !ok.
	if _, ok := m.TimeToReach(0, 500); ok {
		t.Fatal("TimeToReach past target should report !ok")
	}
	// Idle core → !ok.
	if _, ok := m.TimeToReach(3, 100); ok {
		t.Fatal("TimeToReach on idle core should report !ok")
	}
}

func TestSetActivityResetsAppInstructions(t *testing.T) {
	eng, m := newTestMachine()
	m.SetActivity(0, cpuBound())
	run(eng, sim.Microsecond*100)
	if m.AppInstructions(0) == 0 {
		t.Fatal("no progress before switch")
	}
	m.SetActivity(0, memBound())
	if m.AppInstructions(0) != 0 {
		t.Fatal("SetActivity did not reset app instruction count")
	}
}

func TestInjectStallsProgress(t *testing.T) {
	eng, m := newTestMachine()
	m.SetActivity(0, cpuBound())
	before := m.peekCounters(0)
	stall := m.Inject(0, metrics.Counters{Cycles: 3000, Instructions: 100})
	if stall != sim.Time(1000) {
		t.Fatalf("stall = %v, want 1000ns for 3000 cycles at 3GHz", stall)
	}
	after := m.peekCounters(0)
	if after.Cycles != before.Cycles+3000 || after.Instructions != before.Instructions+100 {
		t.Fatalf("injection not applied: %v -> %v", before, after)
	}
	// During the stall no app instructions execute.
	appBefore := m.AppInstructions(0)
	run(eng, stall)
	if got := m.AppInstructions(0); got != appBefore {
		t.Fatalf("app progressed during stall: %v -> %v", appBefore, got)
	}
	// After the stall, progress resumes.
	run(eng, sim.Microsecond)
	if got := m.AppInstructions(0); got <= appBefore {
		t.Fatal("app did not resume after stall")
	}
}

func TestReadCountersObserverEffect(t *testing.T) {
	eng, m := newTestMachine()
	m.SetActivity(0, cpuBound()) // tiny working set → minimum pressure
	run(eng, sim.Microsecond*10)
	snap1, cost := m.ReadCounters(0, metrics.CtxKernel)
	if cost <= 0 {
		t.Fatal("sampling cost should be positive")
	}
	// The snapshot excludes this sample's own events, but the very next
	// read (immediately) sees them.
	snap2 := m.peekCounters(0)
	delta := snap2.Sub(snap1)
	min := m.MinObserverEvents(metrics.CtxKernel)
	if delta.Cycles < min.Cycles || delta.Instructions < min.Instructions {
		t.Fatalf("observer events not injected: delta %v < min %v", delta, min)
	}
}

func TestObserverEffectScalesWithPressure(t *testing.T) {
	_, m := newTestMachine()
	m.SetActivity(0, cpuBound()) // pressure ~0.015
	m.SetActivity(1, &Activity{BaseCPI: 1, RefsPerIns: 0.05, SoloMissRatio: 0.9, WorkingSetBytes: 16 << 20})
	low := m.observerEvents(m.cores[0], metrics.CtxKernel)
	high := m.observerEvents(m.cores[1], metrics.CtxKernel)
	if high.Cycles <= low.Cycles {
		t.Fatalf("data-heavy sample should cost more cycles: %v vs %v", high, low)
	}
	if high.L2Refs == 0 {
		t.Fatal("data-heavy sample should inject L2 refs")
	}
	if low.L2Refs > 2 {
		t.Fatalf("spin-like sample injected %d L2 refs", low.L2Refs)
	}
	// Interrupt sampling costs more than in-kernel sampling (Table 1).
	ik := m.observerEvents(m.cores[0], metrics.CtxKernel)
	ir := m.observerEvents(m.cores[0], metrics.CtxInterrupt)
	if ir.Cycles <= ik.Cycles {
		t.Fatalf("interrupt sample (%v) should cost more than in-kernel (%v)", ir, ik)
	}
}

func TestIdleToRunningTransition(t *testing.T) {
	eng, m := newTestMachine()
	run(eng, sim.Millisecond) // idle for a while
	m.SetActivity(0, cpuBound())
	run(eng, sim.Microsecond*100)
	c := m.peekCounters(0)
	// Only the running period accrues: ~300k cycles for 100 µs.
	if c.Cycles > 400_000 {
		t.Fatalf("idle period leaked cycles: %v", c)
	}
	m.SetActivity(0, nil)
	snap := m.peekCounters(0)
	run(eng, sim.Millisecond)
	if got := m.peekCounters(0); got != snap {
		t.Fatal("counters advanced after going idle")
	}
}

func TestPollutionEvents(t *testing.T) {
	_, m := newTestMachine()
	small := m.PollutionEvents(cpuBound())
	big := m.PollutionEvents(memBound())
	if big.Cycles <= small.Cycles {
		t.Fatal("bigger working set should pollute more")
	}
	if m.PollutionEvents(nil) != (metrics.Counters{}) {
		t.Fatal("nil activity should have zero pollution")
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() metrics.Counters {
		eng, m := newTestMachine()
		m.SetActivity(0, memBound())
		m.SetActivity(1, cpuBound())
		run(eng, sim.Millisecond)
		m.SetActivity(1, memBound())
		run(eng, sim.Millisecond)
		return m.peekCounters(0)
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("machine not deterministic: %v vs %v", a, b)
	}
}

func TestFrequencyScaleStretchesTime(t *testing.T) {
	eng, m := newTestMachine()
	m.SetActivity(0, cpuBound())
	if m.freqScale != 1 {
		t.Fatalf("nominal scale = %v, want 1", m.freqScale)
	}
	full, ok := m.TimeToReach(0, 300_000)
	if !ok {
		t.Fatal("no time-to-reach on a running core")
	}
	m.SetFrequencyScale(0.5)
	half, ok := m.TimeToReach(0, 300_000)
	if !ok {
		t.Fatal("no time-to-reach after scaling")
	}
	if half < full*2-2 || half > full*2+2 {
		t.Fatalf("half frequency should double time: %v -> %v", full, half)
	}
	// CPI per instruction is frequency-independent: run 1 ms scaled, the
	// counters still show the activity's CPI.
	run(eng, sim.Millisecond)
	c := m.peekCounters(0)
	wantCPI := m.Rate(0).CPI
	if got := c.Value(metrics.CPI); math.Abs(got-wantCPI) > 0.01 {
		t.Fatalf("scaled CPI = %v, want %v", got, wantCPI)
	}
	// Restoring nominal frequency restores the original rate.
	m.SetFrequencyScale(1)
	if m.Rate(0).NsPerIns != m.Rate(0).CPI/m.cfg.CyclesPerNs {
		t.Fatal("nominal rate not restored")
	}
	// Non-positive scales reset to nominal rather than halting the clock.
	m.SetFrequencyScale(-3)
	if m.freqScale != 1 {
		t.Fatalf("negative scale accepted: %v", m.freqScale)
	}
}

func TestFrequencyScaleNotifiesListeners(t *testing.T) {
	_, m := newTestMachine()
	m.SetActivity(0, cpuBound())
	m.SetActivity(2, memBound())
	var fired []int
	m.OnRateChange(func(core int) { fired = append(fired, core) })
	m.SetFrequencyScale(0.25)
	if len(fired) < 2 {
		t.Fatalf("rate-change listeners fired for %v, want both running cores", fired)
	}
}
