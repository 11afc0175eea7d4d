package kernel

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// startStage hands the request's current phase-group to a worker in the
// given tier: a thread already blocked waiting for this request, an idle
// worker, or the tier's pending queue.
func (k *Kernel) startStage(run *RequestRun, tier int) {
	// A waiter blocked at this resume point takes priority: it is the
	// upstream thread to which the downstream tier just "responded".
	for i, w := range run.waiters {
		if w.Tier == tier && w.resumePhase == run.phase {
			run.waiters = append(run.waiters[:i], run.waiters[i+1:]...)
			k.enqueue(w)
			return
		}
	}
	if tier >= len(k.idleWorkers) {
		panic(fmt.Sprintf("kernel: no worker pool for tier %d", tier))
	}
	if n := len(k.idleWorkers[tier]); n > 0 {
		w := k.idleWorkers[tier][n-1]
		k.idleWorkers[tier] = k.idleWorkers[tier][:n-1]
		w.Run = run
		k.enqueue(w)
		return
	}
	k.pendingStage[tier] = append(k.pendingStage[tier], run)
}

// enqueue places a runnable thread on its home core's runqueue, choosing
// the least-loaded core on first placement, and dispatches if the core is
// free.
func (k *Kernel) enqueue(t *Thread) {
	if t.core < 0 {
		best, bestLoad := 0, math.MaxInt
		for _, c := range k.cores {
			load := len(c.runq)
			if c.cur != nil {
				load++
			}
			if load < bestLoad {
				best, bestLoad = c.id, load
			}
		}
		t.core = best
	}
	c := k.cores[t.core]
	c.runq = append(c.runq, t)
	if c.cur == nil {
		k.dispatch(c)
	}
}

// dispatchIfFree dispatches only when the core is free; helpers that may
// have indirectly filled the core (worker recycling re-enqueuing onto it)
// use this form.
func (k *Kernel) dispatchIfFree(c *coreState) {
	if c.cur == nil {
		k.dispatch(c)
	}
}

// dispatch selects the next thread for a free core and switches it in.
func (k *Kernel) dispatch(c *coreState) {
	if c.cur != nil {
		panic("kernel: dispatch with a current thread")
	}
	if len(c.runq) == 0 {
		k.mach.SetActivity(c.id, nil)
		return
	}
	idx := k.cfg.Policy.Pick(k, c.id, c.runq, false)
	if idx < 0 || idx >= len(c.runq) {
		idx = 0
	}
	t := c.runq[idx]
	c.runq = append(c.runq[:idx], c.runq[idx+1:]...)
	k.switchIn(c, t)
}

// switchIn makes t current on the core: installs its activity, fires the
// request-context-switch-in sampling hook, charges switch costs, and arms
// the quantum and execution breakpoint.
func (k *Kernel) switchIn(c *coreState, t *Thread) {
	c.cur = t
	run := t.Run
	if !run.started {
		run.started = true
		run.Start = k.eng.Now()
	}
	k.Stats.ContextSwitches++

	ph := run.CurrentPhase()
	if ph == nil {
		panic("kernel: switchIn with completed request")
	}
	act := ph.Activity
	k.mach.SetActivity(c.id, &act)
	c.syncedAppIns = 0

	if k.hooks.SwitchIn != nil {
		k.hooks.SwitchIn(c.id, run)
	}
	if k.kobs.switches != nil {
		k.kobs.switches.Add(1)
	}
	// Direct switch cost plus cache re-warming land in the incoming
	// request's first period, as on real hardware.
	cost := k.cfg.CtxSwitchCost
	if k.cfg.PollutionOnSwitch {
		poll := k.mach.PollutionEvents(&act)
		if k.kobs.pollution != nil {
			k.kobs.pollution.Add(poll.Cycles)
		}
		cost = cost.Add(poll)
	}
	k.mach.Inject(c.id, cost)

	k.armQuantum(c)
	if run.phaseFresh {
		// First execution of this phase on any core: draw its system call
		// schedule and issue the stage-entry system call (phase entry call
		// or the socket receive of a tier hop).
		run.phaseFresh = false
		k.drawNextSyscall(run)
		k.beginStage(c)
	}
	k.rescheduleBreak(c)
}

// switchOut removes the current thread from the core (sampling the
// counters for request attribution first) and leaves the core free.
// The caller decides where the thread goes next.
func (k *Kernel) switchOut(c *coreState) *Thread {
	t := c.cur
	if t == nil {
		return nil
	}
	k.syncProgress(c)
	if k.hooks.SwitchOut != nil {
		k.hooks.SwitchOut(c.id, t.Run)
	}
	c.quantum.Stop()
	c.brk.Stop()
	c.cur = nil
	return t
}

// syncProgress folds the machine's application-instruction progress made
// since the last sync into the run's phase position.
func (k *Kernel) syncProgress(c *coreState) {
	t := c.cur
	if t == nil {
		return
	}
	run := t.Run
	done := k.mach.AppInstructions(c.id)
	delta := done - c.syncedAppIns
	if delta > 0 {
		c.syncedAppIns = done
		run.insInPhase += delta
		run.insIntoRun += delta
	}
}

// armQuantum schedules the policy's re-scheduling opportunity.
func (k *Kernel) armQuantum(c *coreState) {
	c.quantum.Arm(k.cfg.Policy.Quantum(k))
}

// quantumExpiry is a scheduling opportunity: the policy chooses among the
// current thread (kept at the head of the runqueue, so that resuming it
// costs nothing — Section 5.2) and the queued threads.
func (k *Kernel) quantumExpiry(c *coreState) {
	if c.cur == nil {
		return
	}
	if len(c.runq) == 0 {
		k.Stats.KeptCurrent++
		k.armQuantum(c)
		return
	}
	k.syncProgress(c)
	cands := append(c.cands[:0], c.cur)
	cands = append(cands, c.runq...)
	c.cands = cands // keep the grown buffer for the next pick
	idx := k.cfg.Policy.Pick(k, c.id, cands, true)
	if idx <= 0 || idx > len(c.runq) {
		// Keep the current request: no context switch, no pollution.
		k.Stats.KeptCurrent++
		k.armQuantum(c)
		return
	}
	k.Stats.Preemptions++
	chosen := cands[idx]
	prev := k.switchOut(c)
	c.runq = append(c.runq, prev) // round-robin: to the tail
	for i, t := range c.runq {
		if t == chosen {
			c.runq = append(c.runq[:i], c.runq[i+1:]...)
			break
		}
	}
	k.switchIn(c, chosen)
}

// rescheduleBreak recomputes the core's next execution breakpoint (phase
// end or next system call) from current machine rates and stalls.
func (k *Kernel) rescheduleBreak(c *coreState) {
	t := c.cur
	if t == nil {
		c.brk.Stop()
		return
	}
	run := t.Run
	ph := run.CurrentPhase()
	if ph == nil {
		c.brk.Stop()
		return
	}
	k.syncProgress(c)
	target := ph.Instructions
	if run.nextSyscall < target {
		target = run.nextSyscall
	}
	machTarget := c.syncedAppIns + (target - run.insInPhase)
	d, ok := k.mach.TimeToReach(c.id, machTarget)
	if !ok {
		// Already past the target (or the activity was just installed and
		// the target is zero-length): handle immediately.
		d = 0
	}
	c.brk.Arm(d)
}

// onRateChange keeps breakpoints consistent when contention changes a
// co-runner's execution rate.
func (k *Kernel) onRateChange(core int) {
	c := k.cores[core]
	if c.cur != nil && c.brk.Pending() {
		k.rescheduleBreak(c)
	}
}

// breakpoint handles the current thread reaching its next behavioral event.
func (k *Kernel) breakpoint(c *coreState) {
	t := c.cur
	if t == nil {
		return
	}
	run := t.Run
	k.syncProgress(c)
	ph := run.CurrentPhase()
	if ph == nil {
		return
	}
	const eps = 1.5 // instruction rounding slack from time quantization
	if run.nextSyscall < ph.Instructions && run.insInPhase+eps >= run.nextSyscall {
		// Draw the position of the following system call before handling
		// this one, so that blocking here leaves a valid schedule behind.
		k.drawNextSyscall(run)
		k.handleSyscall(c, nextSyscall(run, ph), ph.BlockProb, ph.BlockMeanNs)
		return
	}
	if run.insInPhase+eps >= ph.Instructions {
		k.advancePhase(c)
		return
	}
	// Spurious wakeup (e.g., from rounding): re-arm.
	k.rescheduleBreak(c)
}

// nextSyscall cycles through the phase's within-phase system calls.
func nextSyscall(run *RequestRun, ph *workload.Phase) trace.Syscall {
	if len(ph.Syscalls) == 0 {
		return trace.SysGeneric
	}
	call := ph.Syscalls[run.syscallIdx%len(ph.Syscalls)]
	run.syscallIdx++
	return call
}

// minSyscallGap is the floor on the instruction distance between
// within-phase system calls: syscalls cannot be arbitrarily dense.
const minSyscallGap = 500

// drawNextSyscall samples the phase position of the next within-phase
// system call from the phase's exponential gap distribution.
func (k *Kernel) drawNextSyscall(run *RequestRun) {
	ph := run.CurrentPhase()
	if ph == nil || ph.SyscallGap <= 0 {
		run.nextSyscall = math.Inf(1)
		return
	}
	gap := run.Req.RNG.Exp(ph.SyscallGap)
	if gap < minSyscallGap {
		gap = minSyscallGap
	}
	run.nextSyscall = run.insInPhase + gap
}

// SyscallCapacity sizes a request's system call stream from its phase plan,
// so a tracker can allocate the stream once. Per phase it counts the
// expected within-phase calls at the phase's SyscallGap under the
// minSyscallGap floor, plus the phase-entry call, or the two socket calls of
// a tier hop. Slack of four standard deviations covers the draw: a count of
// calls with exponential gaps has a variance about equal to its mean.
func SyscallCapacity(req *workload.Request) int {
	var n float64
	for i := range req.Phases {
		ph := &req.Phases[i]
		if i > 0 && ph.Tier != req.Phases[i-1].Tier {
			n += 2 // sendto on this side, recvfrom or the entry call there
		} else if ph.EntrySyscall != trace.NoSyscall {
			n++
		}
		if ph.SyscallGap > 0 {
			// The floored gap max(X, f), X ~ Exp(SyscallGap), has mean
			// f + SyscallGap·e^(−f/SyscallGap).
			mean := minSyscallGap + ph.SyscallGap*math.Exp(-minSyscallGap/ph.SyscallGap)
			n += ph.Instructions / mean
		}
	}
	return int(n + 4*math.Sqrt(n) + 8)
}

// handleSyscall models one system call: the sampling hook at kernel
// entrance, the kernel work, and a possible I/O block.
func (k *Kernel) handleSyscall(c *coreState, call trace.Syscall, blockProb, blockMeanNs float64) {
	t := c.cur
	run := t.Run
	k.Stats.Syscalls++
	if k.hooks.Syscall != nil {
		k.hooks.Syscall(c.id, run, call)
	}
	if k.kobs.syscalls != nil {
		k.kobs.syscalls.Add(1)
	}
	k.mach.Inject(c.id, k.cfg.SyscallCost)
	if blockProb > 0 && run.Req.RNG.Bool(blockProb) {
		dur := run.Req.RNG.Exp(blockMeanNs)
		if dur < float64(sim.Microsecond) {
			dur = float64(sim.Microsecond)
		}
		k.blockForIO(c, sim.Time(dur))
		return
	}
	k.rescheduleBreak(c)
}

// blockForIO deschedules the current thread for an I/O wait and wakes it
// after the given duration.
func (k *Kernel) blockForIO(c *coreState, d sim.Time) {
	t := k.switchOut(c)
	t.wake.Arm(d)
	k.dispatchIfFree(c)
}

// advancePhase moves the run to its next phase, handling phase-entry
// system calls, tier propagation via socket operations, and completion.
func (k *Kernel) advancePhase(c *coreState) {
	t := c.cur
	run := t.Run
	if k.kobs.phases != nil {
		// The completed phase's span: from when the phase began (request
		// submission for the first) to now. Phase spans tile the request
		// span exactly.
		k.kobs.phases.Observe(k.eng.Now() - run.phaseStart)
	}
	run.phaseStart = k.eng.Now()
	run.phase++
	run.insInPhase = 0
	run.syscallIdx = 0

	next := run.CurrentPhase()
	if next == nil {
		k.finishRequest(c)
		return
	}

	if next.Tier != t.Tier {
		// The request propagates to another process through socket
		// operations: a send on this side, a receive on the destination.
		// The paper's request context tracking follows exactly this hop.
		k.handleSyscall(c, trace.SysSendto, 0, 0)
		run.entryPend = trace.SysRecvfrom
		if next.EntrySyscall != trace.NoSyscall {
			run.entryPend = next.EntrySyscall
		}
		run.phaseFresh = true
		// Does this thread resume later, when the request returns to its
		// tier?
		resume := -1
		for i := run.phase; i < len(run.Req.Phases); i++ {
			if run.Req.Phases[i].Tier == t.Tier {
				resume = i
				break
			}
		}
		prev := k.switchOut(c)
		if resume >= 0 {
			prev.resumePhase = resume
			run.waiters = append(run.waiters, prev)
		} else {
			k.releaseWorker(prev)
		}
		k.startStage(run, next.Tier)
		k.dispatchIfFree(c)
		return
	}

	// Same tier: install the next phase's activity in place.
	act := next.Activity
	k.mach.SetActivity(c.id, &act)
	c.syncedAppIns = 0
	k.drawNextSyscall(run)
	if next.EntrySyscall != trace.NoSyscall {
		k.handleSyscall(c, next.EntrySyscall, next.BlockProb, next.BlockMeanNs)
		if c.cur != t {
			return // blocked at phase entry
		}
	}
	k.rescheduleBreak(c)
}

// beginStage is called when a thread switches in with a pending stage-entry
// system call (socket receive or phase-entry call after a tier hop).
func (k *Kernel) beginStage(c *coreState) {
	run := c.cur.Run
	if run.entryPend == trace.NoSyscall {
		return
	}
	call := run.entryPend
	run.entryPend = trace.NoSyscall
	k.handleSyscall(c, call, 0, 0)
}

// finishRequest completes the current request and recycles the worker.
func (k *Kernel) finishRequest(c *coreState) {
	t := k.switchOut(c)
	run := t.Run
	run.Done = true
	run.End = k.eng.Now()
	// Defensive: wake any stray waiters (well-formed phase programs leave
	// none, since the final phase runs on the original tier-0 thread).
	for _, w := range run.waiters {
		k.releaseWorker(w)
	}
	run.waiters = nil
	k.releaseWorker(t)
	if k.kobs.requests != nil {
		k.kobs.requests.Observe(run.End - run.Submit)
	}
	if k.hooks.RequestDone != nil {
		k.hooks.RequestDone(run)
	}
	for _, fn := range k.doneFns {
		fn(run)
	}
	k.dispatchIfFree(c)
}

// releaseWorker returns a thread to its tier's idle pool, or hands it the
// next pending stage.
func (k *Kernel) releaseWorker(t *Thread) {
	t.Run = nil
	tier := t.Tier
	if n := len(k.pendingStage[tier]); n > 0 {
		run := k.pendingStage[tier][0]
		k.pendingStage[tier] = k.pendingStage[tier][1:]
		t.Run = run
		k.enqueue(t)
		return
	}
	k.idleWorkers[tier] = append(k.idleWorkers[tier], t)
}
