// Package kernel simulates the operating system of the paper's testbed
// (instrumented Linux 2.6.18): per-CPU runqueues with quantum-based
// scheduling, context switches with cache-pollution costs, system call
// dispatch, one-shot timer (APIC) interrupts, and — central to the paper —
// request context tracking that follows a request across threads and server
// processes through socket operations, so per-request hardware counter
// periods can be attributed correctly.
//
// The kernel exposes the exact hook points the paper's sampling layer uses:
// request context switches, system call entrances, and programmable timer
// interrupts. The scheduling policy is pluggable; package sched provides the
// contention-easing policy of Section 5.2.
package kernel

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes the kernel.
type Config struct {
	// Machine is the hardware configuration.
	Machine machine.Config
	// Quantum is the scheduling timeslice (Linux 2.6.18 timeslices reach
	// 100 ms; Section 5.2 shortens re-scheduling to 5 ms).
	Quantum sim.Time
	// SyscallCost is the per-system-call kernel work injected into the
	// running request (trap, dispatch, copyin/out).
	SyscallCost metrics.Counters
	// CtxSwitchCost is the direct cost of a context switch (register and
	// address-space switching), charged to the incoming thread.
	CtxSwitchCost metrics.Counters
	// PollutionOnSwitch charges the incoming thread the cache-refill cost
	// of a context switch (machine.PollutionEvents). Disabling it is the
	// ablation for the paper's concern that frequent re-scheduling's cache
	// pollution can negate adaptive scheduling benefits.
	PollutionOnSwitch bool
	// Policy selects the scheduling policy; nil means round-robin FIFO.
	Policy Policy
}

// DefaultConfig returns a Linux-2.6.18-like configuration on the paper's
// hardware.
func DefaultConfig() Config {
	return Config{
		Machine:           machine.DefaultConfig(),
		Quantum:           100 * sim.Millisecond,
		SyscallCost:       metrics.Counters{Cycles: 600, Instructions: 280, L2Refs: 4},
		CtxSwitchCost:     metrics.Counters{Cycles: 1800, Instructions: 700, L2Refs: 12},
		PollutionOnSwitch: true,
	}
}

// Validate reports configuration errors, naming the offending field.
func (c Config) Validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if c.Quantum < 0 {
		return fmt.Errorf("kernel: Quantum must be non-negative, got %v", c.Quantum)
	}
	return nil
}

// Thread is a server worker process/thread.
type Thread struct {
	ID   int
	Tier int
	// Run is the request execution the thread currently hosts (nil when
	// idle).
	Run *RequestRun
	// core is the thread's home core (-1 before first placement). Threads
	// do not migrate, matching the paper's scheduler.
	core int
	// resumePhase, while blocked waiting for the request to come back to
	// this tier, is the phase index at which this thread resumes.
	resumePhase int
	// wake is the thread's reusable I/O-completion timer. A thread blocks
	// on at most one I/O wait at a time, so one timer per thread replaces a
	// fresh event + closure per block.
	wake *sim.Timer
}

// RequestRun is the kernel-side execution state of one request: the
// "request context" the paper's OS instrumentation maintains across CPU
// context switches and inter-process propagation.
type RequestRun struct {
	Req *workload.Request
	// Done is set when the request completes.
	Done bool
	// Submit, Start, and End are the request's lifecycle timestamps.
	Submit, Start, End sim.Time

	phase       int
	phaseStart  sim.Time      // when the current phase began (observability spans)
	insIntoRun  float64       // app instructions completed over the whole request
	insInPhase  float64       // app instructions completed in the current phase
	nextSyscall float64       // insInPhase position of the next within-phase syscall
	syscallIdx  int           // cycles through Phase.Syscalls
	entryPend   trace.Syscall // syscall to issue before the current phase starts
	phaseFresh  bool          // the current phase has not begun executing yet
	started     bool
	waiters     []*Thread // upstream threads blocked on this request
}

// InstructionsDone reports the request's completed application instructions.
func (r *RequestRun) InstructionsDone() float64 { return r.insIntoRun }

// CurrentPhase returns the phase under execution, or nil after completion.
func (r *RequestRun) CurrentPhase() *workload.Phase {
	if r.phase >= len(r.Req.Phases) {
		return nil
	}
	return &r.Req.Phases[r.phase]
}

// Hooks are the sampling layer's attachment points. Nil fields are skipped.
// SwitchIn fires after the incoming request's activity is installed but
// before context-switch costs are charged; SwitchOut fires before the
// outgoing activity is removed — both are the paper's "request context
// switch" sampling moments. Syscall fires at each system call's kernel
// entrance.
type Hooks struct {
	SwitchIn    func(core int, run *RequestRun)
	SwitchOut   func(core int, run *RequestRun)
	Syscall     func(core int, run *RequestRun, call trace.Syscall)
	RequestDone func(run *RequestRun)
}

type coreState struct {
	id   int
	runq []*Thread
	cur  *Thread
	// quantum and brk are the core's two local timers — the re-scheduling
	// opportunity and the next execution breakpoint (phase end or system
	// call). Both re-arm millions of times per run, so they are reusable
	// sim.Timers bound once at construction instead of per-arm events.
	quantum *sim.Timer
	brk     *sim.Timer
	// cands is quantumExpiry's candidate-list scratch buffer, reused across
	// picks so re-scheduling does not allocate.
	cands []*Thread
	// syncedAppIns is the machine app-instruction count already folded
	// into the current run's progress (reset with each SetActivity).
	syncedAppIns float64
}

// kernelObs holds the kernel's resolved observability handles. All fields
// are nil when no collector is attached, so each hook site costs one
// branch (see package obs).
type kernelObs struct {
	requests  *obs.SpanSeries // request latency spans (submit → completion)
	phases    *obs.SpanSeries // per-phase spans (phase begin → advance)
	switches  *obs.Counter    // context switches performed
	syscalls  *obs.Counter    // system calls dispatched
	pollution *obs.Counter    // cache-pollution cycles charged at switch-in
}

// Kernel is the simulated operating system instance.
type Kernel struct {
	eng   *sim.Engine
	mach  *machine.Machine
	cfg   Config
	hooks Hooks
	kobs  kernelObs

	cores        []*coreState
	idleWorkers  [][]*Thread // per tier
	pendingStage [][]*RequestRun
	nextThreadID int

	doneFns []func(*RequestRun)

	// Stats counts scheduling events for overhead analysis.
	Stats struct {
		ContextSwitches uint64
		Syscalls        uint64
		Preemptions     uint64
		KeptCurrent     uint64 // re-scheduling attempts that kept the current thread
	}
}

// New builds a kernel and its machine on the engine.
func New(eng *sim.Engine, cfg Config) *Kernel {
	if cfg.Quantum <= 0 {
		cfg.Quantum = 100 * sim.Millisecond
	}
	k := &Kernel{
		eng:  eng,
		mach: machine.New(eng, cfg.Machine),
		cfg:  cfg,
	}
	if k.cfg.Policy == nil {
		k.cfg.Policy = RoundRobin{}
	}
	for i := 0; i < cfg.Machine.NumCores(); i++ {
		c := &coreState{id: i}
		c.quantum = eng.NewTimer(func() { k.quantumExpiry(c) })
		c.brk = eng.NewTimer(func() { k.breakpoint(c) })
		k.cores = append(k.cores, c)
	}
	k.mach.OnRateChange(k.onRateChange)
	return k
}

// Engine returns the driving simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Machine returns the underlying hardware model.
func (k *Kernel) Machine() *machine.Machine { return k.mach }

// SetHooks installs the sampling layer's hooks. Must be called before the
// simulation starts.
func (k *Kernel) SetHooks(h Hooks) { k.hooks = h }

// SetObserver attaches the observability collector, resolving span and
// counter handles under the collector's current scope. A nil collector
// leaves the kernel uninstrumented. Must be called before the simulation
// starts. Instrumentation reads only the virtual clock and state the
// kernel already computes, so it cannot change any simulation outcome.
func (k *Kernel) SetObserver(c *obs.Collector) {
	if c == nil {
		return
	}
	k.kobs = kernelObs{
		requests:  c.Span("request"),
		phases:    c.Span("request", "phase"),
		switches:  c.Counter("kernel.context_switches"),
		syscalls:  c.Counter("kernel.syscalls"),
		pollution: c.Counter("kernel.pollution_cycles"),
	}
}

// SetFrequencyScale scales this node's CPU clock (DVFS): effective
// frequency = nominal × f, so f < 1 slows every core of the machine.
// Safe to call mid-simulation — the machine advances all counters first
// and the kernel's rate-change listener reschedules pending execution
// breakpoints — which is exactly how fault injection actuates node
// slowdown windows.
func (k *Kernel) SetFrequencyScale(f float64) { k.mach.SetFrequencyScale(f) }

// SetPolicy replaces the scheduling policy. Must be called before the
// simulation starts (policies that depend on the sampling layer are built
// after the kernel and installed here).
func (k *Kernel) SetPolicy(p Policy) {
	if p == nil {
		p = RoundRobin{}
	}
	k.cfg.Policy = p
}

// AddWorkers creates n idle worker threads in the given tier.
func (k *Kernel) AddWorkers(tier, n int) {
	for len(k.idleWorkers) <= tier {
		k.idleWorkers = append(k.idleWorkers, nil)
		k.pendingStage = append(k.pendingStage, nil)
	}
	for i := 0; i < n; i++ {
		t := &Thread{ID: k.nextThreadID, Tier: tier, core: -1}
		t.wake = k.eng.NewTimer(func() { k.enqueue(t) })
		k.nextThreadID++
		k.idleWorkers[tier] = append(k.idleWorkers[tier], t)
	}
}

// OnRequestDone registers a completion callback (load drivers use this).
func (k *Kernel) OnRequestDone(fn func(*RequestRun)) {
	k.doneFns = append(k.doneFns, fn)
}

// CurrentRun returns the request executing on the core, or nil.
func (k *Kernel) CurrentRun(core int) *RequestRun {
	if c := k.cores[core].cur; c != nil {
		return c.Run
	}
	return nil
}

// Submit injects a request into the system; it will be picked up by a
// tier-0 worker (or queue for one).
func (k *Kernel) Submit(req *workload.Request) *RequestRun {
	if len(req.Phases) == 0 {
		panic("kernel: Submit of request with no phases")
	}
	run := &RequestRun{
		Req:         req,
		Submit:      k.eng.Now(),
		phaseStart:  k.eng.Now(),
		nextSyscall: math.Inf(1),
		entryPend:   req.Phases[0].EntrySyscall,
		phaseFresh:  true,
	}
	k.startStage(run, req.Phases[0].Tier)
	return run
}

// Sample reads the core's hardware counters in the given context, modelling
// the observer effect, and keeps execution breakpoints consistent with the
// sampling stall. This is the primitive the sampling layer builds on.
func (k *Kernel) Sample(core int, ctx metrics.SampleContext) metrics.Counters {
	snap, _ := k.mach.ReadCounters(core, ctx)
	k.rescheduleBreak(k.cores[core])
	return snap
}

// NewTimer returns a reusable one-shot timer for the core, like a
// CPU-local APIC timer (see sim.Timer). Re-arming allocates nothing, and
// each arm costs exactly one scheduling sequence number.
func (k *Kernel) NewTimer(core int, fn func()) *sim.Timer {
	return k.eng.NewTimer(fn)
}
