package kernel

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// simpleRequest builds a single-tier request with the given phases.
func simpleRequest(id uint64, phases ...workload.Phase) *workload.Request {
	return &workload.Request{
		ID: id, App: "test", Type: "t",
		Phases: phases,
		RNG:    sim.NewRNG(int64(id)),
	}
}

func cpuPhase(name string, ins float64) workload.Phase {
	return workload.Phase{
		Name: name, Instructions: ins,
		Activity: machine.Activity{BaseCPI: 1, RefsPerIns: 0.005, SoloMissRatio: 0.1, WorkingSetBytes: 256 << 10},
	}
}

func TestWorkerPoolExhaustionQueuesStages(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, DefaultConfig())
	k.AddWorkers(0, 1) // one worker, three requests
	var done int
	k.OnRequestDone(func(*RequestRun) { done++ })
	for i := uint64(1); i <= 3; i++ {
		k.Submit(simpleRequest(i, cpuPhase("p", 50_000)))
	}
	eng.RunAll()
	if done != 3 {
		t.Fatalf("completed %d/3 with a single worker", done)
	}
}

func TestBlockedIOResumesAndCompletes(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, DefaultConfig())
	k.AddWorkers(0, 2)
	ph := cpuPhase("io", 200_000)
	ph.SyscallGap = 20_000
	ph.Syscalls = []trace.Syscall{trace.SysRead}
	ph.BlockProb = 1.0 // every syscall blocks
	ph.BlockMeanNs = float64(50 * sim.Microsecond)
	run := k.Submit(simpleRequest(1, ph))
	eng.RunAll()
	if !run.Done {
		t.Fatal("blocking request did not complete")
	}
	want := 200_000.0
	if math.Abs(run.InstructionsDone()-want) > 0.01*want+10 {
		t.Fatalf("instructions %v, want %v", run.InstructionsDone(), want)
	}
	// The run took much longer than pure execution due to blocking.
	if run.End-run.Start < 300*sim.Microsecond {
		t.Fatalf("blocking run finished suspiciously fast: %v", run.End-run.Start)
	}
}

func TestThreadAffinityNoMigration(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, DefaultConfig())
	coresByThread := map[*RequestRun]map[int]bool{}
	k.SetHooks(Hooks{
		SwitchIn: func(core int, run *RequestRun) {
			if coresByThread[run] == nil {
				coresByThread[run] = map[int]bool{}
			}
			coresByThread[run][core] = true
		},
	})
	d := NewDriver(k, LoadConfig{App: workload.NewTPCC(), Concurrency: 8, Requests: 40, Seed: 3})
	d.Start()
	eng.RunAll()
	// Single-tier requests are pinned to one worker, which never migrates:
	// each run executes on exactly one core.
	for run, cores := range coresByThread {
		if len(cores) != 1 {
			t.Fatalf("request %v ran on %d cores; threads must not migrate", run.Req, len(cores))
		}
	}
}

func TestPolicyPickOutOfRangeFallsBack(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Policy = badPolicy{}
	k := New(eng, cfg)
	k.AddWorkers(0, 2)
	var done int
	k.OnRequestDone(func(*RequestRun) { done++ })
	for i := uint64(1); i <= 4; i++ {
		k.Submit(simpleRequest(i, cpuPhase("p", 30_000)))
	}
	eng.RunAll()
	if done != 4 {
		t.Fatalf("completed %d/4 under an out-of-range policy", done)
	}
}

// badPolicy returns indices far outside the candidate slice.
type badPolicy struct{}

func (badPolicy) Pick(*Kernel, int, []*Thread, bool) int { return 999 }
func (badPolicy) Quantum(k *Kernel) sim.Time             { return 10 * sim.Millisecond }

func TestSetPolicyNilRestoresDefault(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, DefaultConfig())
	k.SetPolicy(nil)
	k.AddWorkers(0, 1)
	run := k.Submit(simpleRequest(1, cpuPhase("p", 10_000)))
	eng.RunAll()
	if !run.Done {
		t.Fatal("nil policy should fall back to round-robin")
	}
}

func TestCurrentRunAndRunqueueViews(t *testing.T) {
	eng := sim.NewEngine()
	k := New(eng, DefaultConfig())
	k.AddWorkers(0, 8)
	for i := uint64(1); i <= 8; i++ {
		k.Submit(simpleRequest(i, cpuPhase("p", 5_000_000)))
	}
	// Mid-run: every core busy, queues hold the surplus.
	eng.Run(100 * sim.Microsecond)
	busy, queued := 0, 0
	for c := 0; c < k.Machine().NumCores(); c++ {
		if k.CurrentRun(c) != nil {
			busy++
		}
		queued += len(k.cores[c].runq)
	}
	if busy != 4 {
		t.Fatalf("busy cores = %d, want 4", busy)
	}
	if queued != 4 {
		t.Fatalf("queued threads = %d, want 4", queued)
	}
	eng.RunAll()
}

func TestZeroQuantumDefaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Quantum = 0
	eng := sim.NewEngine()
	k := New(eng, cfg)
	if k.cfg.Quantum <= 0 {
		t.Fatal("zero quantum should default")
	}
}

func TestMultiPhaseTierHopStatsBalance(t *testing.T) {
	// Multi-tier request: the request hops 0→1→0; hooks must show matched
	// switch in/out counts and the sendto/recvfrom pair.
	eng := sim.NewEngine()
	k := New(eng, DefaultConfig())
	k.AddWorkers(0, 1)
	k.AddWorkers(1, 1)
	var ins, outs int
	var sends, recvs int
	k.SetHooks(Hooks{
		SwitchIn:  func(int, *RequestRun) { ins++ },
		SwitchOut: func(int, *RequestRun) { outs++ },
		Syscall: func(_ int, _ *RequestRun, call trace.Syscall) {
			switch call {
			case trace.SysSendto:
				sends++
			case trace.SysRecvfrom:
				recvs++
			}
		},
	})
	p0 := cpuPhase("web", 50_000)
	p1 := cpuPhase("db", 80_000)
	p1.Tier = 1
	p2 := cpuPhase("render", 30_000)
	run := k.Submit(simpleRequest(1, p0, p1, p2))
	eng.RunAll()
	if !run.Done {
		t.Fatal("tier-hop request did not complete")
	}
	if ins != outs {
		t.Fatalf("unbalanced switches: %d in, %d out", ins, outs)
	}
	if sends != 2 || recvs != 2 {
		t.Fatalf("socket ops = %d sendto / %d recvfrom, want 2/2", sends, recvs)
	}
	want := 160_000.0
	if math.Abs(run.InstructionsDone()-want) > 0.01*want+10 {
		t.Fatalf("instructions %v, want %v", run.InstructionsDone(), want)
	}
}

func TestEntrySyscallBlockingAtPhaseBoundary(t *testing.T) {
	// A phase whose entry syscall can block must still execute fully.
	eng := sim.NewEngine()
	k := New(eng, DefaultConfig())
	k.AddWorkers(0, 1)
	a := cpuPhase("a", 40_000)
	b := cpuPhase("b", 40_000)
	b.EntrySyscall = trace.SysFsync
	b.BlockProb = 1.0
	b.BlockMeanNs = float64(100 * sim.Microsecond)
	run := k.Submit(simpleRequest(1, a, b))
	eng.RunAll()
	if !run.Done {
		t.Fatal("request with blocking entry syscall did not complete")
	}
	want := 80_000.0
	if math.Abs(run.InstructionsDone()-want) > 0.01*want+10 {
		t.Fatalf("instructions %v, want %v", run.InstructionsDone(), want)
	}
}
