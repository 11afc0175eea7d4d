package kernel

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// collectRuns records the kernel's completed requests in completion order.
func collectRuns(k *Kernel) *[]*RequestRun {
	var runs []*RequestRun
	k.OnRequestDone(func(r *RequestRun) { runs = append(runs, r) })
	return &runs
}

// runLoad executes a closed-loop load to completion and returns the kernel
// and its completed requests.
func runLoad(t *testing.T, app workload.App, concurrency, requests int, cfg Config) (*Kernel, []*RequestRun) {
	t.Helper()
	eng := sim.NewEngine()
	k := New(eng, cfg)
	runs := collectRuns(k)
	d := NewDriver(k, LoadConfig{
		App:         app,
		Concurrency: concurrency,
		Requests:    requests,
		Seed:        42,
	})
	d.Start()
	eng.RunAll()
	if d.Completed() != requests {
		t.Fatalf("completed %d/%d requests", d.Completed(), requests)
	}
	return k, *runs
}

func TestSerialWebLoadCompletes(t *testing.T) {
	_, runs := runLoad(t, workload.NewWebServer(), 1, 20, DefaultConfig())
	for _, run := range runs {
		if !run.Done {
			t.Fatal("run not marked done")
		}
		if run.End <= run.Start || run.Start < run.Submit {
			t.Fatalf("bad lifecycle times: submit=%v start=%v end=%v",
				run.Submit, run.Start, run.End)
		}
		// The request should have executed all of its instructions.
		want := run.Req.TotalInstructions()
		if math.Abs(run.InstructionsDone()-want) > 0.01*want+100 {
			t.Fatalf("instructions done %.0f, want %.0f", run.InstructionsDone(), want)
		}
	}
}

func TestConcurrentLoadCompletes(t *testing.T) {
	k, _ := runLoad(t, workload.NewWebServer(), 8, 100, DefaultConfig())
	if k.Stats.ContextSwitches == 0 {
		t.Fatal("no context switches in a concurrent load")
	}
	if k.Stats.Syscalls == 0 {
		t.Fatal("no syscalls recorded")
	}
}

func TestMultiTierRUBiS(t *testing.T) {
	var hops int
	eng := sim.NewEngine()
	k := New(eng, DefaultConfig())
	k.SetHooks(Hooks{
		Syscall: func(core int, run *RequestRun, call trace.Syscall) {
			if call == trace.SysSendto {
				hops++
			}
		},
	})
	runs := collectRuns(k)
	d := NewDriver(k, LoadConfig{App: workload.NewRUBiS(), Concurrency: 4, Requests: 30, Seed: 7})
	d.Start()
	eng.RunAll()
	if d.Completed() != 30 {
		t.Fatalf("completed %d/30", d.Completed())
	}
	if hops == 0 {
		t.Fatal("no tier hops (sendto syscalls) in RUBiS")
	}
	// All requests finished with full instruction counts despite hopping.
	for _, run := range *runs {
		want := run.Req.TotalInstructions()
		if math.Abs(run.InstructionsDone()-want) > 0.01*want+100 {
			t.Fatalf("RUBiS %s: done %.0f of %.0f", run.Req, run.InstructionsDone(), want)
		}
	}
}

func TestHooksFireInOrder(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, DefaultConfig())
	var events []string
	var switchIns, switchOuts int
	k.SetHooks(Hooks{
		SwitchIn:  func(core int, run *RequestRun) { switchIns++; events = append(events, "in") },
		SwitchOut: func(core int, run *RequestRun) { switchOuts++; events = append(events, "out") },
		Syscall:   func(core int, run *RequestRun, call trace.Syscall) { events = append(events, "sys:"+call.String()) },
		RequestDone: func(run *RequestRun) {
			events = append(events, "done")
		},
	})
	d := NewDriver(k, LoadConfig{App: workload.NewWebServer(), Concurrency: 1, Requests: 2, Seed: 1})
	d.Start()
	eng.RunAll()
	if switchIns == 0 || switchOuts == 0 {
		t.Fatal("switch hooks did not fire")
	}
	if switchIns != switchOuts {
		t.Fatalf("unbalanced switches: %d in, %d out", switchIns, switchOuts)
	}
	// First event must be a switch-in; a done must be preceded by an out.
	if events[0] != "in" {
		t.Fatalf("first event = %q", events[0])
	}
	for i, e := range events {
		if e == "done" && events[i-1] != "out" {
			t.Fatalf("done not preceded by switch-out: %v", events[i-1])
		}
	}
}

func TestWebSyscallSequence(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, DefaultConfig())
	var names []string
	k.SetHooks(Hooks{
		Syscall: func(core int, run *RequestRun, call trace.Syscall) { names = append(names, call.String()) },
	})
	d := NewDriver(k, LoadConfig{App: workload.NewWebServer(), Concurrency: 1, Requests: 1, Seed: 3})
	d.Start()
	eng.RunAll()
	// The web request's characteristic sequence must appear in order.
	want := []string{"poll", "read", "stat", "open", "lseek", "writev", "write", "shutdown"}
	wi := 0
	for _, n := range names {
		if wi < len(want) && n == want[wi] {
			wi++
		}
	}
	if wi != len(want) {
		t.Fatalf("syscall sequence %v missing expected subsequence %v (matched %d)",
			names, want, wi)
	}
}

func TestSerialExecutionUsesOneRequestAtATime(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, DefaultConfig())
	maxActive := 0
	k.SetHooks(Hooks{
		SwitchIn: func(core int, run *RequestRun) {
			active := 0
			for c := 0; c < k.Machine().NumCores(); c++ {
				if k.CurrentRun(c) != nil {
					active++
				}
			}
			if active > maxActive {
				maxActive = active
			}
		},
	})
	d := NewDriver(k, LoadConfig{App: workload.NewTPCC(), Concurrency: 1, Requests: 10, Seed: 5})
	d.Start()
	eng.RunAll()
	if maxActive > 1 {
		t.Fatalf("serial load ran %d requests concurrently", maxActive)
	}
}

func TestConcurrentLoadUsesMultipleCores(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, DefaultConfig())
	coresSeen := map[int]bool{}
	k.SetHooks(Hooks{
		SwitchIn: func(core int, run *RequestRun) { coresSeen[core] = true },
	})
	d := NewDriver(k, LoadConfig{App: workload.NewTPCC(), Concurrency: 8, Requests: 60, Seed: 5})
	d.Start()
	eng.RunAll()
	if len(coresSeen) < 4 {
		t.Fatalf("concurrent load used only cores %v", coresSeen)
	}
}

func TestRequestCPUTimePlausible(t *testing.T) {
	// A serial web request at ~150k instructions and CPI ~2 on 3 GHz
	// should take on the order of 100 µs of CPU time.
	_, runs := runLoad(t, workload.NewWebServer(), 1, 10, DefaultConfig())
	for _, run := range runs {
		cpu := run.End - run.Start
		if cpu < 10*sim.Microsecond || cpu > 10*sim.Millisecond {
			t.Fatalf("web request wall time %v implausible", cpu)
		}
	}
}

func TestSampleReadsAndPerturbs(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, DefaultConfig())
	d := NewDriver(k, LoadConfig{App: workload.NewTPCH(), Concurrency: 1, Requests: 1, Seed: 2})
	var samples []metrics.Counters
	done := false
	var tick func()
	tick = func() {
		if done {
			return
		}
		if k.CurrentRun(0) != nil {
			samples = append(samples, k.Sample(0, metrics.CtxInterrupt))
		}
		eng.After(sim.Millisecond, tick)
	}
	k.OnRequestDone(func(*RequestRun) { done = true })
	eng.After(sim.Millisecond, tick)
	d.Start()
	eng.RunAll()
	if len(samples) < 10 {
		t.Fatalf("expected many periodic samples, got %d", len(samples))
	}
	// Counters are monotone.
	for i := 1; i < len(samples); i++ {
		if samples[i].Cycles < samples[i-1].Cycles {
			t.Fatal("counter went backwards")
		}
	}
}

func TestQuantumPreemption(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quantum = 2 * sim.Millisecond // short quantum forces preemption
	eng := sim.NewEngine()
	k := New(eng, cfg)
	// Two long TPCH requests pinned by concurrency to interleave.
	d := NewDriver(k, LoadConfig{App: workload.NewTPCH(), Concurrency: 6, Requests: 6, Seed: 9})
	d.Start()
	eng.RunAll()
	if k.Stats.Preemptions == 0 {
		t.Fatal("short quantum produced no preemptions")
	}
	if d.Completed() != 6 {
		t.Fatalf("completed %d/6", d.Completed())
	}
}

func TestDeterministicRuns(t *testing.T) {
	sig := func() (uint64, sim.Time) {
		eng := sim.NewEngine()
		k := New(eng, DefaultConfig())
		runs := collectRuns(k)
		d := NewDriver(k, LoadConfig{App: workload.NewTPCC(), Concurrency: 4, Requests: 30, Seed: 11})
		d.Start()
		eng.RunAll()
		var last sim.Time
		for _, r := range *runs {
			if r.End > last {
				last = r.End
			}
		}
		return k.Stats.Syscalls, last
	}
	s1, t1 := sig()
	s2, t2 := sig()
	if s1 != s2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", s1, t1, s2, t2)
	}
}

func TestThinkTimeDelaysSubmission(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, DefaultConfig())
	d := NewDriver(k, LoadConfig{
		App: workload.NewWebServer(), Concurrency: 1, Requests: 5,
		ThinkMean: 5 * sim.Millisecond, Seed: 13,
	})
	d.Start()
	eng.RunAll()
	if d.Completed() != 5 {
		t.Fatalf("completed %d/5", d.Completed())
	}
	// Total wall time must be at least a few think times.
	if eng.Now() < 5*sim.Millisecond {
		t.Fatalf("run finished too fast for think times: %v", eng.Now())
	}
}

func TestSubmitEmptyRequestPanics(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, DefaultConfig())
	k.AddWorkers(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Submit of empty request did not panic")
		}
	}()
	k.Submit(&workload.Request{ID: 1, RNG: sim.NewRNG(1)})
}
