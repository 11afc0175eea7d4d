// Package sampling implements the paper's online tracking of request
// behavior variations (Section 3): hardware counter sampling at request
// context switches, at periodic (APIC) interrupts, at system call entrances
// — the paper's low-cost in-kernel scheme with a backup interrupt timer —
// and at behavior-transition-signal system calls only. It applies the
// paper's "do no harm" observer-effect compensation and accounts sampling
// overhead per Table 1's per-sample costs.
package sampling

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Mode selects the sampling strategy layered on top of the always-on
// request context switch sampling.
type Mode int

const (
	// CtxSwitchOnly samples only at request context switches — the minimum
	// needed for per-request accounting (inter-request variations only).
	CtxSwitchOnly Mode = iota
	// Interrupt adds periodic per-core interrupt sampling (Section 3.1).
	Interrupt
	// SyscallTriggered samples at system call entrances at least
	// TsyscallMin apart, with a backup interrupt at TbackupInt covering
	// system-call-free stretches (Section 3.2).
	SyscallTriggered
	// SignalTriggered is SyscallTriggered restricted to the system calls
	// most correlated with behavior transitions (Section 3.2, "Behavior
	// Transition Signals").
	SignalTriggered
)

func (m Mode) String() string {
	switch m {
	case CtxSwitchOnly:
		return "ctx-switch-only"
	case Interrupt:
		return "interrupt"
	case SyscallTriggered:
		return "syscall-triggered"
	case SignalTriggered:
		return "signal-triggered"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes a Tracker.
type Config struct {
	Mode Mode
	// Period is the periodic interrupt sampling interval (Interrupt mode).
	Period sim.Time
	// TsyscallMin is the minimum spacing between syscall-context samples.
	TsyscallMin sim.Time
	// TbackupInt is the backup interrupt delay, re-armed at every sample;
	// substantially larger than TsyscallMin so that no interrupts occur
	// while system calls are frequent.
	TbackupInt sim.Time
	// Signals is the trigger set for SignalTriggered mode.
	Signals map[string]bool
	// Compensate subtracts the minimum (Mbench-Spin) per-sample observer
	// effect from each measured period — the "do no harm" rule.
	Compensate bool
	// TrainSignals records before/after metric changes around every system
	// call to build Table 2's transition-signal statistics.
	TrainSignals bool
	// Bigrams keys transition-signal training and SignalTriggered triggers
	// by the previous and current call names ("poll>read") instead of the
	// name alone — the Section 3.2 improvement for calls that occur in many
	// semantic contexts.
	Bigrams bool
	// DiscardSyscallEvents skips recording the per-request system call
	// event stream. Sampling, triggering, and period attribution are
	// unaffected — only trace.Request.Syscalls stays empty — so analyses
	// that never read the syscall stream (e.g. the scheduling experiments,
	// which consume periods and co-execution meters only) avoid the
	// dominant trace-memory cost of long runs.
	DiscardSyscallEvents bool
}

// Counts tallies samples by context for overhead accounting.
type Counts struct {
	Kernel    uint64 // in-kernel samples (context switches, system calls)
	Interrupt uint64 // interrupt samples (periodic or backup)
}

// Per-sample time costs from the paper's Table 1 (Mbench-Spin: 1270 and
// 2276 cycles at 3 GHz). Exported so overhead accounting — here and in the
// observability layer's run reports — uses one set of numbers.
const (
	// KernelSampleCostNs is the cost of an in-kernel sample (context
	// switch or system call entrance): 0.42 µs.
	KernelSampleCostNs = 423.3
	// InterruptSampleCostNs is the cost of an interrupt sample, which pays
	// an extra user/kernel domain switch: 0.76 µs.
	InterruptSampleCostNs = 758.7
)

// OverheadNs estimates total sampling overhead using the paper's method:
// sample counts times the measured per-sample costs of Table 1.
func (c Counts) OverheadNs() float64 {
	return float64(c.Kernel)*KernelSampleCostNs + float64(c.Interrupt)*InterruptSampleCostNs
}

// Total returns the total number of samples.
func (c Counts) Total() uint64 { return c.Kernel + c.Interrupt }

type coreTrack struct {
	run *kernel.RequestRun
	// tr is run's trace, looked up once at switch-in so the per-syscall
	// and per-sample paths do not hash the tracker's trace map.
	tr       *trace.Request
	last     metrics.Counters
	lastTime sim.Time
	lastCtx  metrics.SampleContext
	// timer is the core's reusable sampling timer (periodic or backup
	// interrupt), bound once at tracker construction.
	timer *sim.Timer
	// pendingSignal holds a just-sampled syscall's key and the CPI of the
	// period before it, awaiting the after-period for signal training.
	pendingSignal string
	pendingBefore float64
	pendingValid  bool
	// bigrams tracks the previous call for sequence-keyed signals.
	bigrams bigramState
}

// Tracker attaches to a kernel and maintains per-request traces online.
type Tracker struct {
	k     *kernel.Kernel
	cfg   Config
	store *trace.Store
	cores []*coreTrack

	traces  map[*kernel.RequestRun]*trace.Request
	trainer *SignalTrainer

	onPeriod   []func(run *kernel.RequestRun, tr *trace.Request, dur sim.Time, c metrics.Counters)
	onComplete []func(tr *trace.Request)

	// obs holds resolved observability handles (all nil when disabled).
	tobs struct {
		samples          *obs.SpanSeries // per-sample period spans
		kernelSamples    *obs.Counter
		interruptSamples *obs.Counter
	}

	// Counts tallies samples for overhead accounting.
	Counts Counts
}

// NewTracker builds a tracker and installs its hooks on the kernel. The
// kernel must not have other hooks installed; additional consumers should
// subscribe via OnPeriod/OnComplete.
func NewTracker(k *kernel.Kernel, cfg Config) *Tracker {
	t := &Tracker{
		k:      k,
		cfg:    cfg,
		store:  &trace.Store{},
		traces: map[*kernel.RequestRun]*trace.Request{},
	}
	if cfg.TrainSignals {
		t.trainer = NewSignalTrainer()
	}
	for i := 0; i < k.Machine().NumCores(); i++ {
		core := i
		ct := &coreTrack{}
		ct.timer = k.NewTimer(core, func() { t.timerFired(core) })
		t.cores = append(t.cores, ct)
	}
	k.SetHooks(kernel.Hooks{
		SwitchIn:    t.switchIn,
		SwitchOut:   t.switchOut,
		Syscall:     t.syscall,
		RequestDone: t.requestDone,
	})
	return t
}

// SetObserver attaches the observability collector, resolving the
// per-sample span series (honoring the collector's sampling mode — the
// sample level is the highest-frequency series) and sample counters. A nil
// collector leaves the tracker uninstrumented. The span durations are the
// attributed period lengths already computed for the trace, read off the
// virtual clock, so instrumentation cannot perturb measurements.
func (t *Tracker) SetObserver(c *obs.Collector) {
	if c == nil {
		return
	}
	t.tobs.samples = c.SampledSpan("request", "phase", "sample")
	t.tobs.kernelSamples = c.Counter("sampling.kernel_samples")
	t.tobs.interruptSamples = c.Counter("sampling.interrupt_samples")
}

// Kernel returns the kernel this tracker is attached to.
func (t *Tracker) Kernel() *kernel.Kernel { return t.k }

// Store returns the collected request traces.
func (t *Tracker) Store() *trace.Store { return t.store }

// Trainer returns the transition-signal trainer (nil unless TrainSignals).
func (t *Tracker) Trainer() *SignalTrainer { return t.trainer }

// OnPeriod subscribes to every attributed period as it is recorded; the
// contention-easing scheduler's online predictors consume this.
func (t *Tracker) OnPeriod(fn func(run *kernel.RequestRun, tr *trace.Request, dur sim.Time, c metrics.Counters)) {
	t.onPeriod = append(t.onPeriod, fn)
}

// OnComplete subscribes to request trace completion.
func (t *Tracker) OnComplete(fn func(tr *trace.Request)) {
	t.onComplete = append(t.onComplete, fn)
}

// traceFor lazily creates the request's trace. A recorded system call
// stream is allocated once, at the capacity the request's phase plan
// predicts (kernel.SyscallCapacity), instead of regrowing by copying.
func (t *Tracker) traceFor(run *kernel.RequestRun) *trace.Request {
	tr := t.traces[run]
	if tr == nil {
		req := run.Req
		tr = &trace.Request{
			ID:        req.ID,
			App:       req.App,
			Type:      req.Type,
			TypeIndex: req.TypeIndex,
			Start:     run.Start,
		}
		if !t.cfg.DiscardSyscallEvents {
			tr.Syscalls = make([]trace.SyscallEvent, 0, kernel.SyscallCapacity(req))
		}
		t.traces[run] = tr
	}
	return tr
}

// sample reads the counters in the given context and attributes the period
// since the previous sample to the core's current request.
func (t *Tracker) sample(core int, ctx metrics.SampleContext) {
	ct := t.cores[core]
	run := ct.run
	if run == nil {
		return
	}
	now := t.k.Engine().Now()
	snap := t.k.Sample(core, ctx)
	switch ctx {
	case metrics.CtxKernel:
		t.Counts.Kernel++
		if t.tobs.kernelSamples != nil {
			t.tobs.kernelSamples.Add(1)
		}
	case metrics.CtxInterrupt:
		t.Counts.Interrupt++
		if t.tobs.interruptSamples != nil {
			t.tobs.interruptSamples.Add(1)
		}
	}
	delta := snap.Sub(ct.last)
	if t.cfg.Compensate {
		// The previous sample's own events landed in this period; subtract
		// the minimum per-sample effect (never over-compensating).
		delta = delta.Sub(t.k.Machine().MinObserverEvents(ct.lastCtx))
	}
	dur := now - ct.lastTime
	if t.tobs.samples != nil {
		t.tobs.samples.Observe(dur)
	}
	tr := ct.tr
	tr.AddPeriod(dur, delta)
	for _, fn := range t.onPeriod {
		fn(run, tr, dur, delta)
	}
	// Signal training: the delta just recorded is the "after" period of a
	// pending syscall observation.
	if ct.pendingValid && t.trainer != nil {
		after := delta.Value(metrics.CPI)
		if delta.Instructions > 0 {
			t.trainer.Record(ct.pendingSignal, after-ct.pendingBefore)
		}
		ct.pendingValid = false
	}
	ct.last = snap
	ct.lastTime = now
	ct.lastCtx = ctx
}

// baseline establishes a fresh sampling baseline at switch-in without
// attributing a period.
func (t *Tracker) baseline(core int) {
	ct := t.cores[core]
	ct.last = t.k.Sample(core, metrics.CtxKernel)
	ct.lastTime = t.k.Engine().Now()
	ct.lastCtx = metrics.CtxKernel
	ct.pendingValid = false
	t.Counts.Kernel++
	if t.tobs.kernelSamples != nil {
		t.tobs.kernelSamples.Add(1)
	}
}

func (t *Tracker) switchIn(core int, run *kernel.RequestRun) {
	ct := t.cores[core]
	ct.run = run
	ct.tr = t.traceFor(run)
	ct.bigrams.reset()
	t.baseline(core)
	t.armTimer(core)
}

func (t *Tracker) switchOut(core int, run *kernel.RequestRun) {
	ct := t.cores[core]
	if ct.run != run {
		return
	}
	t.sample(core, metrics.CtxKernel)
	ct.run = nil
	ct.tr = nil
	ct.timer.Stop()
}

func (t *Tracker) syscall(core int, run *kernel.RequestRun, call trace.Syscall) {
	ct := t.cores[core]
	if ct.run != run {
		return
	}
	now := t.k.Engine().Now()
	if !t.cfg.DiscardSyscallEvents {
		tr := ct.tr
		cpu := tr.CPUTime() + (now - ct.lastTime)
		tr.AddSyscall(call, run.InstructionsDone(), cpu)
	}

	// Names are resolved only in the modes that key signals by them.
	prev := trace.NoSyscall
	if t.cfg.Bigrams {
		prev = ct.bigrams.next(call)
	}
	trigger := false
	switch t.cfg.Mode {
	case SyscallTriggered:
		trigger = true
	case SignalTriggered:
		trigger = t.cfg.Signals[BigramKey(prev.String(), call.String())] || t.cfg.Signals[call.String()]
	}
	if t.cfg.TrainSignals {
		trigger = true
	}
	if !trigger || now-ct.lastTime < t.cfg.TsyscallMin {
		return
	}
	beforeStart := ct.last
	t.sample(core, metrics.CtxKernel)
	if t.cfg.TrainSignals {
		// Stash this syscall and the CPI of the period that just closed as
		// the "before" level; the next sample closes the "after" period.
		before := ct.last.Sub(beforeStart)
		if before.Instructions > 0 {
			ct.pendingSignal = BigramKey(prev.String(), call.String())
			ct.pendingBefore = before.Value(metrics.CPI)
			ct.pendingValid = true
		}
	}
	t.armTimer(core)
}

func (t *Tracker) requestDone(run *kernel.RequestRun) {
	tr := t.traceFor(run)
	tr.End = run.End
	tr.AppIns = run.InstructionsDone()
	delete(t.traces, run)
	t.store.Add(tr)
	for _, fn := range t.onComplete {
		fn(tr)
	}
}

// armTimer arms the mode's timer: the periodic sampling interrupt or the
// backup interrupt of syscall-triggered sampling.
func (t *Tracker) armTimer(core int) {
	ct := t.cores[core]
	var d sim.Time
	switch t.cfg.Mode {
	case Interrupt:
		d = t.cfg.Period
	case SyscallTriggered, SignalTriggered:
		d = t.cfg.TbackupInt
	default:
		ct.timer.Stop()
		return
	}
	if d <= 0 {
		ct.timer.Stop()
		return
	}
	ct.timer.Arm(d)
}

func (t *Tracker) timerFired(core int) {
	ct := t.cores[core]
	if ct.run != nil {
		t.sample(core, metrics.CtxInterrupt)
	}
	t.armTimer(core)
}
