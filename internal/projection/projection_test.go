package projection

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func defaultPlatform() Platform {
	return FromMachine(machine.DefaultConfig())
}

// mkPeriod builds a period with the given CPI, refs/ins, and miss ratio.
func mkPeriod(cpi, refs, miss float64) metrics.Counters {
	const ins = 1_000_000
	r := uint64(refs * ins)
	return metrics.Counters{
		Cycles:       uint64(cpi * ins),
		Instructions: ins,
		L2Refs:       r,
		L2Misses:     uint64(miss * float64(r)),
	}
}

func TestIdentityProjection(t *testing.T) {
	p := New(defaultPlatform(), defaultPlatform())
	c := mkPeriod(2.0, 0.04, 0.15)
	got := p.PeriodCPI(c)
	if math.Abs(got-2.0) > 0.02 {
		t.Fatalf("identity projection = %v, want ~2.0", got)
	}
}

func TestFasterMemoryLowersCPI(t *testing.T) {
	target := defaultPlatform()
	target.Cache.MissPenalty = 120 // much faster memory
	p := New(defaultPlatform(), target)
	c := mkPeriod(2.0, 0.04, 0.15)
	got := p.PeriodCPI(c)
	if got >= 2.0 {
		t.Fatalf("faster memory projection = %v, want < 2.0", got)
	}
	// A compute-bound period barely benefits.
	cb := mkPeriod(1.2, 0.002, 0.05)
	if d := 1.2 - p.PeriodCPI(cb); d > 0.05 {
		t.Fatalf("compute-bound period improved by %v on faster memory", d)
	}
}

func TestBiggerCacheHelpsMissHeavyPeriods(t *testing.T) {
	target := defaultPlatform()
	target.Cache.CapacityBytes *= 4
	p := New(defaultPlatform(), target)
	missy := mkPeriod(3.0, 0.05, 0.4)
	clean := mkPeriod(3.0, 0.05, 0.02)
	dMissy := 3.0 - p.PeriodCPI(missy)
	dClean := 3.0 - p.PeriodCPI(clean)
	if dMissy <= dClean {
		t.Fatalf("miss-heavy period should benefit more from cache: %v vs %v", dMissy, dClean)
	}
	// Shrinking the cache hurts.
	small := defaultPlatform()
	small.Cache.CapacityBytes /= 4
	ps := New(defaultPlatform(), small)
	if ps.PeriodCPI(missy) <= 3.0 {
		t.Fatal("smaller cache should raise a miss-heavy period's CPI")
	}
}

func TestCapacitySensitivityZero(t *testing.T) {
	target := defaultPlatform()
	target.Cache.CapacityBytes *= 8
	p := New(defaultPlatform(), target)
	p.CapacitySensitivity = 0
	c := mkPeriod(2.5, 0.04, 0.3)
	// Sensitivity 0: the miss ratio is unchanged, so only latency terms
	// (identical here) matter — projection is the identity.
	if got := p.PeriodCPI(c); math.Abs(got-2.5) > 0.02 {
		t.Fatalf("insensitive projection = %v, want ~2.5", got)
	}
}

func TestProjectWholeTrace(t *testing.T) {
	tr := &trace.Request{ID: 1, App: "x", Type: "t"}
	// Durations consistent with the 3 GHz source clock: cycles / 3 ns.
	a := mkPeriod(2.0, 0.04, 0.2)
	b := mkPeriod(1.2, 0.005, 0.05)
	tr.AddPeriod(sim.Time(a.Cycles/3), a)
	tr.AddPeriod(sim.Time(b.Cycles/3), b)
	target := defaultPlatform()
	target.CyclesPerNs = 6.0 // twice the clock
	p := New(defaultPlatform(), target)
	res := p.Project(tr)
	if len(res.PeriodCPI) != 2 {
		t.Fatalf("period series = %d", len(res.PeriodCPI))
	}
	// Same cache, double clock: CPI identical, CPU time halves.
	srcCPI := tr.MetricValue(metrics.CPI)
	if math.Abs(res.CPI-srcCPI) > 0.02 {
		t.Fatalf("CPI changed under clock-only projection: %v vs %v", res.CPI, srcCPI)
	}
	if res.SpeedUp < 1.8 || res.SpeedUp > 2.2 {
		t.Fatalf("speedup = %v, want ~2 for double clock", res.SpeedUp)
	}
}

func TestProjectEmptyTrace(t *testing.T) {
	p := New(defaultPlatform(), defaultPlatform())
	res := p.Project(&trace.Request{})
	if res.CPI != 0 || res.CPUTimeNs != 0 {
		t.Fatalf("empty trace projection = %+v", res)
	}
}

func TestValidate(t *testing.T) {
	p := New(defaultPlatform(), Platform{})
	if p.Validate() == nil {
		t.Fatal("zero target should not validate")
	}
	if New(defaultPlatform(), defaultPlatform()).Validate() != nil {
		t.Fatal("default platforms should validate")
	}
}

// TestProjectionAgainstSimulation is the end-to-end validation: project
// solo-run traces from the default platform onto a modified platform, then
// actually simulate that platform and compare mean request CPI.
func TestProjectionAgainstSimulation(t *testing.T) {
	// Solo 1-core runs give contention-free traces, the regime where
	// per-period inversion of the cost model is exact.
	src, err := core.Run(core.Options{
		App: workload.NewTPCC(), Concurrency: 1, Requests: 40,
		Sampling: core.DefaultSampling(workload.NewTPCC()), Seed: 5,
	}, core.WithTopology(machine.Homogeneous(1, 1)))
	if err != nil {
		t.Fatal(err)
	}

	// Project onto a platform with faster memory.
	target := defaultPlatform()
	target.Cache.MissPenalty = 120
	p := New(defaultPlatform(), target)
	var projected []float64
	for _, r := range p.ProjectAll(src.Store.Traces) {
		projected = append(projected, r.CPI)
	}
	srcMean := stats.Mean(src.Store.MetricValues(metrics.CPI))
	projMean := stats.Mean(projected)
	if projMean >= srcMean {
		t.Fatalf("projection onto faster memory did not lower CPI: %v -> %v", srcMean, projMean)
	}
	// The reduction should be material for TPCC (memory-sensitive) but
	// bounded: the miss contribution is roughly half the total for its
	// hotter periods.
	if projMean < srcMean*0.5 {
		t.Fatalf("projection collapsed CPI implausibly: %v -> %v", srcMean, projMean)
	}
}
