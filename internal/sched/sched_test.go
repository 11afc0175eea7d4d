package sched

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/signature"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tpchRun executes a TPCH load under a policy and returns the tracker,
// kernel, and meter results.
func tpchRun(t *testing.T, requests int, usePolicy bool, threshold float64) (*sampling.Tracker, *kernel.Kernel, HighUsageCoExecution) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := kernel.DefaultConfig()
	k := kernel.New(eng, cfg)
	tk := sampling.NewTracker(k, sampling.Config{
		Mode: sampling.Interrupt, Period: sim.Millisecond, Compensate: true,
	})
	var pol *ContentionEasing
	if usePolicy {
		mon := NewMonitor(tk, 0.6)
		pol = NewContentionEasing(mon, threshold)
		k.SetPolicy(pol)
	}
	meter := NewCoExecutionMeter(k, threshold, sim.Millisecond)
	d := kernel.NewDriver(k, kernel.LoadConfig{
		App: workload.NewTPCH(), Concurrency: 8, Requests: requests, Seed: 21,
	})
	d.Start()
	eng.RunAll()
	meter.Stop()
	if d.Completed() != requests {
		t.Fatalf("completed %d/%d", d.Completed(), requests)
	}
	return tk, k, meter.Result()
}

func TestHighUsageThreshold(t *testing.T) {
	st := &trace.Store{}
	tr := &trace.Request{}
	for i := 0; i < 10; i++ {
		miss := uint64(i) // rising misses per 100 instructions
		tr.AddPeriod(100, metrics.Counters{Cycles: 200, Instructions: 100, L2Refs: 20, L2Misses: miss})
	}
	st.Add(tr)
	th := HighUsageThreshold(st, 80)
	if th <= 0.04 || th >= 0.09 {
		t.Fatalf("threshold = %v, want ~0.072 (80th pct of 0.00..0.09)", th)
	}
}

func TestMonitorPredictsFromPeriods(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig())
	tk := sampling.NewTracker(k, sampling.Config{
		Mode: sampling.Interrupt, Period: sim.Millisecond, Compensate: true,
	})
	mon := NewMonitor(tk, 0.6)
	// Observe predictions on the live period stream (the monitor's own
	// subscription runs first, so a prediction exists by the time this
	// callback sees the period); completion wipes predictor state.
	var sawPrediction bool
	tk.OnPeriod(func(run *kernel.RequestRun, _ *trace.Request, _ sim.Time, _ metrics.Counters) {
		if mon.Predicted(run) > 0 {
			sawPrediction = true
		}
	})
	d := kernel.NewDriver(k, kernel.LoadConfig{
		App: workload.NewTPCH(), Concurrency: 2, Requests: 4, Seed: 5,
	})
	d.Start()
	eng.RunAll()
	if !sawPrediction {
		t.Fatal("monitor never produced a positive prediction for TPCH")
	}
}

func TestMonitorStateDrainsAfterRun(t *testing.T) {
	// Requests that finish without a trailing sampling period must still be
	// forgotten: after a fully drained run the predictor map is empty.
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig())
	tk := sampling.NewTracker(k, sampling.Config{
		Mode: sampling.Interrupt, Period: sim.Millisecond, Compensate: true,
	})
	mon := NewMonitor(tk, 0.6)
	d := kernel.NewDriver(k, kernel.LoadConfig{
		App: workload.NewTPCH(), Concurrency: 4, Requests: 8, Seed: 5,
	})
	d.Start()
	eng.RunAll()
	if d.Completed() != 8 {
		t.Fatalf("completed %d/8", d.Completed())
	}
	if len(mon.preds) != 0 {
		t.Fatalf("monitor leaked %d predictor entries after a drained run", len(mon.preds))
	}
}

func TestContentionEasingReducesCoExecution(t *testing.T) {
	// Calibrate the threshold from a baseline run's traces.
	base, _, baseCo := tpchRun(t, 40, false, 0.004)
	threshold := HighUsageThreshold(base.Store(), 80)
	if threshold <= 0 {
		t.Fatalf("bad threshold %v", threshold)
	}
	_, _, baseCo = tpchRun(t, 40, false, threshold)
	_, k2, easedCo := tpchRun(t, 40, true, threshold)

	if baseCo.AtLeast2 == 0 {
		t.Skip("baseline produced no high-usage co-execution; nothing to ease")
	}
	// The policy must at least not worsen the most intensive contention,
	// and should typically reduce it (paper: ~25% reduction of 4-core-high
	// time).
	if easedCo.All4 > baseCo.All4*1.15 {
		t.Fatalf("contention easing worsened 4-core-high time: %v -> %v",
			baseCo.All4, easedCo.All4)
	}
	_ = k2
}

func TestPolicyPickPrefersLowUsage(t *testing.T) {
	// Direct unit test of Pick: a synthetic monitor state.
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig())
	tk := sampling.NewTracker(k, sampling.Config{Mode: sampling.CtxSwitchOnly})
	mon := NewMonitor(tk, 0.6)
	pol := NewContentionEasing(mon, 0.01)

	// With no high-usage runs anywhere, Pick keeps the head.
	cands := []*kernel.Thread{{}, {}}
	if got := pol.Pick(k, 0, cands, false); got != 0 {
		t.Fatalf("Pick = %d, want 0 with no contention", got)
	}
}

func TestQuantumDefault(t *testing.T) {
	pol := NewContentionEasing(nil, 1)
	if pol.Quantum(nil) != 5*sim.Millisecond {
		t.Fatalf("Quantum = %v, want 5ms", pol.Quantum(nil))
	}
	pol.RescheduleInterval = 0
	if pol.Quantum(nil) != 5*sim.Millisecond {
		t.Fatal("zero interval should fall back to 5ms")
	}
}

func TestMeterCounts(t *testing.T) {
	_, _, co := tpchRun(t, 20, false, 1e-9) // threshold ~0: every executing core is "high"
	if co.AtLeast2 == 0 {
		t.Fatal("with a zero threshold, concurrent execution must register")
	}
	if co.AtLeast2 < co.AtLeast3 || co.AtLeast3 < co.All4 {
		t.Fatalf("co-execution proportions not monotone: %+v", co)
	}
}

func TestWorstCaseCPIImproves(t *testing.T) {
	// The headline Figure 13 shape: contention easing should not hurt the
	// average CPI and should help (or at least not hurt) the worst case.
	base, _, _ := tpchRun(t, 60, false, 0.004)
	threshold := HighUsageThreshold(base.Store(), 80)
	eased, _, _ := tpchRun(t, 60, true, threshold)

	baseCPI := base.Store().MetricValues(metrics.CPI)
	easedCPI := eased.Store().MetricValues(metrics.CPI)
	baseWorst := stats.Percentile(baseCPI, 99)
	easedWorst := stats.Percentile(easedCPI, 99)
	if easedWorst > baseWorst*1.1 {
		t.Fatalf("worst-case CPI regressed: %.3f -> %.3f", baseWorst, easedWorst)
	}
	baseAvg := stats.Mean(baseCPI)
	easedAvg := stats.Mean(easedCPI)
	if easedAvg > baseAvg*1.15 {
		t.Fatalf("average CPI regressed badly: %.3f -> %.3f", baseAvg, easedAvg)
	}
}

// topoRun executes a TPCH load under the topology-aware policy.
func topoRun(t *testing.T, requests int, threshold float64) (*sampling.Tracker, HighUsageCoExecution) {
	t.Helper()
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig())
	tk := sampling.NewTracker(k, sampling.Config{
		Mode: sampling.Interrupt, Period: sim.Millisecond, Compensate: true,
	})
	mon := NewMonitor(tk, 0.6)
	pol := NewTopologyAware(mon, threshold)
	k.SetPolicy(pol)
	meter := NewCoExecutionMeter(k, threshold, sim.Millisecond)
	d := kernel.NewDriver(k, kernel.LoadConfig{
		App: workload.NewTPCH(), Concurrency: 8, Requests: requests, Seed: 21,
	})
	d.Start()
	eng.RunAll()
	meter.Stop()
	if d.Completed() != requests {
		t.Fatalf("completed %d/%d", d.Completed(), requests)
	}
	return tk, meter.Result()
}

func TestTopologyAwareCompletesAndEases(t *testing.T) {
	base, _, baseCo := tpchRun(t, 60, false, 0.004)
	threshold := HighUsageThreshold(base.Store(), 80)
	_, _, baseCo = tpchRun(t, 60, false, threshold)
	_, topoCo := topoRun(t, 60, threshold)
	if baseCo.AtLeast2 == 0 {
		t.Skip("no baseline contention to ease")
	}
	// The topology-aware policy must not make the most intensive
	// contention worse.
	if topoCo.All4 > baseCo.All4*1.2+0.001 {
		t.Fatalf("topology-aware policy worsened 4-high time: %v -> %v",
			baseCo.All4, topoCo.All4)
	}
}

func TestTopologyAwarePickSemantics(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig())
	tk := sampling.NewTracker(k, sampling.Config{Mode: sampling.CtxSwitchOnly})
	mon := NewMonitor(tk, 0.6)
	pol := NewTopologyAware(mon, 0.01)
	// No contention anywhere: keep the head.
	if got := pol.Pick(k, 0, []*kernel.Thread{{}, {}}, false); got != 0 {
		t.Fatalf("Pick = %d, want 0", got)
	}
	if pol.Quantum(nil) != 5*sim.Millisecond {
		t.Fatal("default quantum should be 5ms")
	}
	pol.RescheduleInterval = 0
	if pol.Quantum(nil) != 5*sim.Millisecond {
		t.Fatal("zero interval should fall back")
	}
}

// TestSignatureSessionsLiveStream drives the cluster co-scheduling stack
// end to end on a live kernel run: sessions fed from the tracker's period
// stream must identify in-flight requests against a calibration bank,
// identification must yield positive CPU predictions, and all session
// state must drain when the run completes.
func TestSignatureSessionsLiveStream(t *testing.T) {
	base, _, _ := tpchRun(t, 24, false, 0.004)
	threshold := HighUsageThreshold(base.Store(), 80)
	bank := signature.BuildCompact(base.Store().Traces, metrics.L2RefsPerIns, 2e6, 0, 4, 1)
	if len(bank.Entries) == 0 {
		t.Fatal("empty calibration bank")
	}

	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig())
	tk := sampling.NewTracker(k, sampling.Config{
		Mode: sampling.Interrupt, Period: sim.Millisecond, Compensate: true,
	})
	mon := NewMonitor(tk, 0.6)
	sessions := NewSignatureSessions(tk, bank)
	pol := NewClusterCoSched(mon, sessions, threshold)
	k.SetPolicy(pol)

	// Observe identification on the live stream (the sessions' own
	// subscription runs first, so state is current when this callback sees
	// the period).
	var identified, predicted bool
	tk.OnPeriod(func(run *kernel.RequestRun, _ *trace.Request, _ sim.Time, _ metrics.Counters) {
		cl := sessions.Cluster(run)
		if cl < 0 {
			return
		}
		identified = true
		if cl >= len(bank.Entries) {
			t.Errorf("cluster %d out of range [0,%d)", cl, len(bank.Entries))
		}
		if sessions.PredictedCPUNs(run) > 0 {
			predicted = true
		}
	})
	const requests = 24
	d := kernel.NewDriver(k, kernel.LoadConfig{
		App: workload.NewTPCH(), Concurrency: 8, Requests: requests, Seed: 21,
	})
	d.Start()
	eng.RunAll()
	if d.Completed() != requests {
		t.Fatalf("completed %d/%d", d.Completed(), requests)
	}
	if !identified {
		t.Fatal("no in-flight request was ever identified against the bank")
	}
	if !predicted {
		t.Fatal("identification never yielded a positive CPU prediction")
	}
	if len(sessions.states) != 0 {
		t.Fatalf("sessions leaked %d entries after a drained run", len(sessions.states))
	}
	if pol.Stats.Opportunities == 0 {
		t.Fatal("policy saw no scheduling opportunities at concurrency 8")
	}
}

// TestQuantumFallbacks pins the new policies' reschedule intervals and
// their zero-interval fallbacks (ContentionEasing's is covered by
// TestQuantumDefault).
func TestQuantumFallbacks(t *testing.T) {
	cluster := NewClusterCoSched(nil, nil, 1)
	if cluster.Quantum(nil) != 5*sim.Millisecond {
		t.Fatalf("cluster default quantum = %v, want 5ms", cluster.Quantum(nil))
	}
	cluster.RescheduleInterval = 0
	if cluster.Quantum(nil) != 5*sim.Millisecond {
		t.Fatal("cluster zero interval should fall back to 5ms")
	}
	deadline := NewDeadlineOrdered(nil)
	if deadline.Quantum(nil) != sim.Millisecond {
		t.Fatalf("deadline default quantum = %v, want 1ms", deadline.Quantum(nil))
	}
	deadline.RescheduleInterval = 0
	if deadline.Quantum(nil) != sim.Millisecond {
		t.Fatal("deadline zero interval should fall back to 1ms")
	}
}
