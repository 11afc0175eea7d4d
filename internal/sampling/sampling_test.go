package sampling

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runTracked executes a load with a tracker attached.
func runTracked(t *testing.T, app workload.App, concurrency, requests int, cfg Config) *Tracker {
	t.Helper()
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig())
	tk := NewTracker(k, cfg)
	d := kernel.NewDriver(k, kernel.LoadConfig{
		App: app, Concurrency: concurrency, Requests: requests, Seed: 42,
	})
	d.Start()
	eng.RunAll()
	if d.Completed() != requests {
		t.Fatalf("completed %d/%d", d.Completed(), requests)
	}
	if tk.Store().Len() != requests {
		t.Fatalf("traced %d/%d requests", tk.Store().Len(), requests)
	}
	return tk
}

func TestCtxSwitchOnlyTracksWholeRequests(t *testing.T) {
	tk := runTracked(t, workload.NewWebServer(), 1, 20, Config{Mode: CtxSwitchOnly, Compensate: true})
	for _, tr := range tk.Store().Traces {
		if len(tr.Periods) == 0 {
			t.Fatal("trace with no periods")
		}
		if tr.Instructions() == 0 {
			t.Fatal("trace with no instructions")
		}
		cpi := tr.MetricValue(metrics.CPI)
		if cpi < 0.8 || cpi > 6 {
			t.Fatalf("implausible request CPI %v", cpi)
		}
		if tr.CPUTime() <= 0 {
			t.Fatal("non-positive CPU time")
		}
	}
}

func TestInterruptSamplingAddsPeriods(t *testing.T) {
	coarse := runTracked(t, workload.NewTPCC(), 1, 10, Config{Mode: CtxSwitchOnly, Compensate: true})
	fine := runTracked(t, workload.NewTPCC(), 1, 10, Config{Mode: Interrupt, Period: 100 * sim.Microsecond, Compensate: true})
	var nCoarse, nFine int
	for i := range coarse.Store().Traces {
		nCoarse += len(coarse.Store().Traces[i].Periods)
		nFine += len(fine.Store().Traces[i].Periods)
	}
	if nFine <= nCoarse*2 {
		t.Fatalf("interrupt sampling should multiply periods: %d vs %d", nFine, nCoarse)
	}
	if fine.Counts.Interrupt == 0 {
		t.Fatal("no interrupt samples counted")
	}
}

func TestIntraRequestVariationCaptured(t *testing.T) {
	// With fine sampling, the per-request CPI series should show variation
	// (web requests have strongly phased behavior).
	tk := runTracked(t, workload.NewWebServer(), 1, 20, Config{Mode: Interrupt, Period: 10 * sim.Microsecond, Compensate: true})
	var covs []float64
	for _, tr := range tk.Store().Traces {
		s := tr.Series(metrics.CPI, 0)
		if s.Len() >= 3 {
			covs = append(covs, s.CoV())
		}
	}
	if len(covs) == 0 {
		t.Fatal("no multi-period traces")
	}
	if stats.Mean(covs) < 0.1 {
		t.Fatalf("intra-request CPI CoV %.3f too small — phases not captured", stats.Mean(covs))
	}
}

func TestSyscallTriggeredAvoidsInterrupts(t *testing.T) {
	// The web server's syscalls are so frequent that with a proper
	// Tbackup >> TsyscallMin, backup interrupts should (almost) never fire.
	tk := runTracked(t, workload.NewWebServer(), 1, 30, Config{
		Mode:        SyscallTriggered,
		TsyscallMin: 8 * sim.Microsecond,
		TbackupInt:  200 * sim.Microsecond,
		Compensate:  true,
	})
	if tk.Counts.Kernel == 0 {
		t.Fatal("no kernel-context samples")
	}
	frac := float64(tk.Counts.Interrupt) / float64(tk.Counts.Total())
	if frac > 0.05 {
		t.Fatalf("backup interrupts fired for %.1f%% of samples on a syscall-heavy app", frac*100)
	}
}

func TestBackupTimerCoversSyscallFreeStretches(t *testing.T) {
	// WeBWorK has long syscall-free computations: the backup timer must
	// produce samples there.
	tk := runTracked(t, workload.NewWeBWorK(), 1, 2, Config{
		Mode:        SyscallTriggered,
		TsyscallMin: 300 * sim.Microsecond,
		TbackupInt:  sim.Millisecond,
		Compensate:  true,
	})
	if tk.Counts.Interrupt == 0 {
		t.Fatal("backup interrupts never fired on a compute-heavy app")
	}
}

func TestSignalTriggeredRestrictsTriggers(t *testing.T) {
	all := runTracked(t, workload.NewWebServer(), 1, 30, Config{
		Mode:        SyscallTriggered,
		TsyscallMin: 0,
		TbackupInt:  500 * sim.Microsecond,
		Compensate:  true,
	})
	subset := runTracked(t, workload.NewWebServer(), 1, 30, Config{
		Mode:        SignalTriggered,
		TsyscallMin: 0,
		TbackupInt:  500 * sim.Microsecond,
		Signals:     map[string]bool{"writev": true, "lseek": true},
		Compensate:  true,
	})
	if subset.Counts.Kernel >= all.Counts.Kernel {
		t.Fatalf("signal-restricted sampling should sample less: %d vs %d",
			subset.Counts.Kernel, all.Counts.Kernel)
	}
}

func TestSyscallEventsRecorded(t *testing.T) {
	tk := runTracked(t, workload.NewWebServer(), 1, 5, Config{Mode: CtxSwitchOnly})
	for _, tr := range tk.Store().Traces {
		if len(tr.Syscalls) < 5 {
			t.Fatalf("web trace has only %d syscalls", len(tr.Syscalls))
		}
		// Positions must be non-decreasing.
		for i := 1; i < len(tr.Syscalls); i++ {
			if tr.Syscalls[i].Ins < tr.Syscalls[i-1].Ins {
				t.Fatal("syscall instruction positions not monotone")
			}
			if tr.Syscalls[i].CPUTime < tr.Syscalls[i-1].CPUTime {
				t.Fatal("syscall CPU time positions not monotone")
			}
		}
		names := tr.SyscallNames()
		found := false
		for _, n := range names {
			if n == "writev" {
				found = true
			}
		}
		if !found {
			t.Fatal("writev missing from web syscall trace")
		}
	}
}

func TestCompensationReducesBias(t *testing.T) {
	// Sampling at very fine grain inflates measured CPI via the observer
	// effect; compensation should bring it back toward the coarse-grained
	// measurement.
	run := func(compensate bool) float64 {
		eng := sim.NewEngine()
		k := kernel.New(eng, kernel.DefaultConfig())
		tk := NewTracker(k, Config{Mode: Interrupt, Period: 10 * sim.Microsecond, Compensate: compensate})
		d := kernel.NewDriver(k, kernel.LoadConfig{
			App: workload.NewTPCC(), Concurrency: 1, Requests: 10, Seed: 7,
		})
		d.Start()
		eng.RunAll()
		var vals []float64
		for _, tr := range tk.Store().Traces {
			vals = append(vals, tr.MetricValue(metrics.CPI))
		}
		return stats.Mean(vals)
	}
	raw := run(false)
	comp := run(true)
	if comp >= raw {
		t.Fatalf("compensated CPI %.4f should be below raw %.4f", comp, raw)
	}
}

func TestSignalTrainerTable2Shape(t *testing.T) {
	tk := runTracked(t, workload.NewWebServer(), 1, 120, Config{
		Mode:         SyscallTriggered,
		TsyscallMin:  0,
		TbackupInt:   sim.Millisecond,
		Compensate:   true,
		TrainSignals: true,
	})
	st := tk.Trainer().Stats()
	if len(st) < 5 {
		t.Fatalf("trained only %d syscall names", len(st))
	}
	byName := map[string]SignalStat{}
	for _, s := range st {
		byName[s.Name] = s
	}
	// Table 2's strongest signals: writev → large increase, lseek → decrease.
	wv, ok := byName["writev"]
	if !ok || !wv.Increase() || wv.Mean < 1.0 {
		t.Fatalf("writev should signal a strong CPI increase, got %+v", wv)
	}
	ls, ok := byName["lseek"]
	if !ok || ls.Increase() {
		t.Fatalf("lseek should signal a CPI decrease, got %+v", ls)
	}
	stt, ok := byName["stat"]
	if !ok || stt.Increase() {
		t.Fatalf("stat should signal a CPI decrease, got %+v", stt)
	}
	// Selection picks the largest |mean| names.
	sel := tk.Trainer().Select(4, 10)
	if !sel["writev"] {
		t.Fatalf("writev must be among selected signals: %v", sel)
	}
}

func TestOverheadAccounting(t *testing.T) {
	tk := runTracked(t, workload.NewTPCC(), 1, 5, Config{Mode: Interrupt, Period: 100 * sim.Microsecond})
	if tk.Counts.Total() == 0 {
		t.Fatal("no samples")
	}
	oh := tk.Counts.OverheadNs()
	if oh <= 0 {
		t.Fatal("no overhead accounted")
	}
	// Interrupt samples cost more than kernel samples per unit.
	perSample := oh / float64(tk.Counts.Total())
	if perSample < 400 || perSample > 800 {
		t.Fatalf("per-sample overhead %.0f ns outside Table 1 range", perSample)
	}
}

func TestTraceTotalsMatchKernelProgress(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig())
	tk := NewTracker(k, Config{Mode: CtxSwitchOnly}) // no compensation: raw counts
	var runs []*kernel.RequestRun
	k.OnRequestDone(func(r *kernel.RequestRun) { runs = append(runs, r) })
	d := kernel.NewDriver(k, kernel.LoadConfig{
		App: workload.NewTPCC(), Concurrency: 1, Requests: 5, Seed: 3,
	})
	d.Start()
	eng.RunAll()
	for i, tr := range tk.Store().Traces {
		run := runs[i]
		// Trace instructions = app instructions + injected kernel work, so
		// they must be >= app progress but within a modest envelope.
		app := run.InstructionsDone()
		got := float64(tr.Instructions())
		if got < app*0.95 {
			t.Fatalf("trace lost instructions: %v < %v", got, app)
		}
		if got > app*1.3 {
			t.Fatalf("trace inflated instructions: %v vs app %v", got, app)
		}
	}
}

func TestWelford(t *testing.T) {
	w := &welford{}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.add(x)
	}
	if math.Abs(w.mean-5) > 1e-9 || math.Abs(w.std()-2) > 1e-9 {
		t.Fatalf("welford mean/std = %v/%v, want 5/2", w.mean, w.std())
	}
	var w2 welford
	w2.add(3)
	if w2.std() != 0 {
		t.Fatal("single-sample std should be 0")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		CtxSwitchOnly: "ctx-switch-only", Interrupt: "interrupt",
		SyscallTriggered: "syscall-triggered", SignalTriggered: "signal-triggered",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
}

func TestStoreHelpers(t *testing.T) {
	tk := runTracked(t, workload.NewTPCC(), 1, 30, Config{Mode: CtxSwitchOnly})
	st := tk.Store()
	byType := st.ByType()
	if len(byType) < 2 {
		t.Fatalf("expected multiple TPCC types, got %d", len(byType))
	}
	if len(st.MetricValues(metrics.CPI)) != 30 || len(st.CPUTimes()) != 30 {
		t.Fatal("store extraction lengths wrong")
	}
	var _ = trace.Store{} // keep import
}

// Figure 4's instruction gaps tile the request's application instructions:
// start to first call, call to call, and last call to request end sum to
// the instructions the request itself executed. The counter total also
// holds the kernel work injected at every call and switch (280 instructions
// per call by default), so ending the last gap there would stretch it by
// millions of instructions on a TPC-H query.
func TestSyscallGapsTileApplicationInstructions(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig())
	tk := NewTracker(k, Config{Mode: CtxSwitchOnly})
	appIns := map[uint64]float64{}
	k.OnRequestDone(func(r *kernel.RequestRun) { appIns[r.Req.ID] = r.InstructionsDone() })
	d := kernel.NewDriver(k, kernel.LoadConfig{
		App: workload.NewTPCH(), Concurrency: 2, Requests: 4, Seed: 5,
	})
	d.Start()
	eng.RunAll()
	if tk.Store().Len() != 4 {
		t.Fatalf("traced %d/4 requests", tk.Store().Len())
	}
	for _, tr := range tk.Store().Traces {
		ins, _ := tr.SyscallGaps()
		var sum float64
		for _, g := range ins {
			sum += g
		}
		want := appIns[tr.ID]
		if math.Abs(sum-want) > 1e-9*want+1 {
			t.Fatalf("trace %d: instruction gaps sum to %.0f, request executed %.0f application instructions",
				tr.ID, sum, want)
		}
	}
}

func TestMultiTierTraceContinuity(t *testing.T) {
	// A RUBiS request's trace must stitch periods from all the processes
	// (and cores) it traversed: totals match kernel progress and syscall
	// streams include the socket hops.
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig())
	tk := NewTracker(k, Config{Mode: CtxSwitchOnly})
	var runs []*kernel.RequestRun
	k.OnRequestDone(func(r *kernel.RequestRun) { runs = append(runs, r) })
	d := kernel.NewDriver(k, kernel.LoadConfig{
		App: workload.NewRUBiS(), Concurrency: 4, Requests: 20, Seed: 8,
	})
	d.Start()
	eng.RunAll()
	byID := map[uint64]*kernel.RequestRun{}
	for _, r := range runs {
		byID[r.Req.ID] = r
	}
	for _, tr := range tk.Store().Traces {
		run := byID[tr.ID]
		app := run.InstructionsDone()
		got := float64(tr.Instructions())
		if got < app*0.95 || got > app*1.3 {
			t.Fatalf("multi-tier trace %d: %v instructions vs kernel %v", tr.ID, got, app)
		}
		var hops int
		for _, s := range tr.Syscalls {
			if s.Call == trace.SysSendto {
				hops++
			}
		}
		if hops == 0 {
			t.Fatalf("trace %d recorded no socket hops", tr.ID)
		}
	}
}

func TestDegenerateSamplingConfigsStillTrace(t *testing.T) {
	// Pathological configurations must degrade gracefully, never stall.
	configs := []Config{
		{Mode: Interrupt, Period: 0},                                       // periodic with no period
		{Mode: SyscallTriggered, TsyscallMin: sim.Second, TbackupInt: 0},   // nothing ever triggers
		{Mode: SignalTriggered, Signals: nil, TbackupInt: sim.Millisecond}, // empty trigger set
	}
	for i, cfg := range configs {
		eng := sim.NewEngine()
		k := kernel.New(eng, kernel.DefaultConfig())
		tk := NewTracker(k, cfg)
		d := kernel.NewDriver(k, kernel.LoadConfig{
			App: workload.NewWebServer(), Concurrency: 2, Requests: 10, Seed: 9,
		})
		d.Start()
		eng.RunAll()
		if tk.Store().Len() != 10 {
			t.Fatalf("config %d: traced %d/10", i, tk.Store().Len())
		}
		for _, tr := range tk.Store().Traces {
			if tr.Instructions() == 0 {
				t.Fatalf("config %d: empty trace", i)
			}
		}
	}
}
