// Package machine models the multicore hardware of the paper's experimental
// platform: two dual-core packages (four cores), each pair sharing an L2
// cache, with per-core performance counter registers (non-halted cycles,
// retired instructions, L2 references, L2 misses).
//
// The machine executes "activities" — fixed hardware characteristics (base
// CPI, L2 references per instruction, solo miss ratio, working set) that the
// workload layer derives from request phases. At any instant each core runs
// at a constant rate determined by its activity and its co-runners (shared
// cache capacity and memory bandwidth contention, see package cache); the
// rate is recomputed whenever any core's activity changes. Between changes,
// counters accrue linearly, so simulation cost is proportional to the number
// of behavioral events rather than to instructions.
//
// Counter reads model the paper's observer effect (Table 1): each read
// injects the sampling code's own cycles, instructions, and — for
// cache-hungry workloads — L2 references into the hardware counters and
// stalls application progress for the sampling cost.
package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Activity describes the inherent hardware characteristics of a stretch of
// application execution (one workload phase, or a microbenchmark loop).
type Activity struct {
	// BaseCPI is the cycles per instruction absent all L2/memory stalls.
	BaseCPI float64
	// RefsPerIns is the L2 references issued per instruction.
	RefsPerIns float64
	// SoloMissRatio is the L2 miss ratio with the cache to itself.
	SoloMissRatio float64
	// WorkingSetBytes is the activity's cache footprint.
	WorkingSetBytes float64
}

// ObserverConfig sets the cost and counter perturbation of one hardware
// counter sample, per sampling context, matching the paper's Table 1.
// The Extra* fields are the additional perturbation seen under full cache
// pressure (Mbench-Data vs Mbench-Spin); actual injection scales them by
// the running activity's cache pressure.
type ObserverConfig struct {
	KernelBase  metrics.Counters // in-kernel sample, minimum effect
	KernelExtra metrics.Counters // additional at full cache pressure
	IntrBase    metrics.Counters // interrupt sample, minimum effect
	IntrExtra   metrics.Counters // additional at full cache pressure
}

// DefaultObserver returns Table 1's measured perturbations: an in-kernel
// sample costs ~0.42 µs (1270 cycles, 649 instructions), an interrupt
// sample ~0.76 µs (2276 cycles, 724 instructions); cache-polluting
// workloads add ~100 cycles and ~13 L2 references per sample.
func DefaultObserver() ObserverConfig {
	return ObserverConfig{
		KernelBase:  metrics.Counters{Cycles: 1270, Instructions: 649},
		KernelExtra: metrics.Counters{Cycles: 104, L2Refs: 13},
		IntrBase:    metrics.Counters{Cycles: 2276, Instructions: 724},
		IntrExtra:   metrics.Counters{Cycles: 112, Instructions: 10, L2Refs: 12},
	}
}

// Config describes the machine topology and cost model.
type Config struct {
	// CyclesPerNs is the nominal clock rate (3.0 for the paper's 3 GHz
	// Xeon 5160). Topology.CyclesPerNs, when positive, overrides it.
	CyclesPerNs float64
	Cache       cache.Config
	Observer    ObserverConfig
	// Topology is the package/core layout (Homogeneous builds an n-core
	// box).
	Topology Topology
}

// NumCores returns the total core count.
func (c Config) NumCores() int { return c.Topology.NumCores() }

// Clock returns the resolved cycles-per-ns rate.
func (c Config) Clock() float64 {
	if c.Topology.CyclesPerNs > 0 {
		return c.Topology.CyclesPerNs
	}
	return c.CyclesPerNs
}

// DefaultConfig returns the paper's platform: 4 cores, 2 packages, 3 GHz,
// shared 4 MB L2 per package.
func DefaultConfig() Config {
	return Config{
		CyclesPerNs: 3.0,
		Cache:       cache.DefaultConfig(),
		Observer:    DefaultObserver(),
		Topology:    DefaultTopology(),
	}
}

// Validate reports configuration errors, naming the offending field.
func (c Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.Clock() <= 0 {
		return fmt.Errorf("machine: CyclesPerNs must be positive, got %v", c.Clock())
	}
	return nil
}

// fcounters accrues counters in float64 to avoid per-slice rounding drift.
type fcounters struct {
	cycles, ins, refs, misses float64
}

func (f *fcounters) add(c metrics.Counters) {
	f.cycles += float64(c.Cycles)
	f.ins += float64(c.Instructions)
	f.refs += float64(c.L2Refs)
	f.misses += float64(c.L2Misses)
}

func (f *fcounters) snapshot() metrics.Counters {
	return metrics.Counters{
		Cycles:       uint64(f.cycles),
		Instructions: uint64(f.ins),
		L2Refs:       uint64(f.refs),
		L2Misses:     uint64(f.misses),
	}
}

// Rate is a core's current derived execution rate.
type Rate struct {
	// CPI is the effective cycles per application instruction.
	CPI float64
	// MissRatio is the effective L2 miss ratio under current co-runners.
	MissRatio float64
	// RefsPerIns mirrors the activity's reference rate.
	RefsPerIns float64
	// NsPerIns is virtual nanoseconds per application instruction.
	NsPerIns float64
}

type core struct {
	id         int
	hw         fcounters
	activity   *Activity // also the core's occupant in Machine.ct
	rate       Rate
	appIns     float64  // application instructions completed in current activity
	lastUpdate sim.Time // counters are accurate as of this instant
	stallUntil sim.Time // no app progress before this (sampling/pollution stalls)
}

// Machine is the simulated multicore. It is single-threaded, like the
// simulation engine that drives it.
type Machine struct {
	eng *sim.Engine
	cfg Config
	// ct holds the layout and prices contention whenever an activity
	// changes.
	ct        *Contention
	cores     []*core
	listeners []func(core int)
	// freqScale is the DVFS multiplier on the configured clock: the
	// effective rate is CyclesPerNs × freqScale. 1 is nominal frequency;
	// fault injection scales it down for node-slowdown windows. It composes
	// multiplicatively with each core's static topology scale.
	freqScale float64
	// changed is recomputeRates' result buffer. Reusing it is safe because
	// no listener re-enters SetActivity or SetFrequencyScale: the kernel's
	// listener only re-arms a breakpoint (onRateChange → rescheduleBreak →
	// TimeToReach, Timer.Arm).
	changed []int
}

// New builds a machine on the given engine. It panics on an invalid
// configuration (a programming error, not a runtime condition).
func New(eng *sim.Engine, cfg Config) *Machine {
	m := &Machine{eng: eng, cfg: cfg, ct: NewContention(cfg), freqScale: 1}
	m.cores = make([]*core, cfg.NumCores())
	for i := range m.cores {
		m.cores[i] = &core{id: i}
	}
	m.changed = make([]int, 0, len(m.cores))
	return m
}

// Topology returns the machine's resolved package/core layout.
func (m *Machine) Topology() Topology { return m.cfg.Topology }

// NumCores returns the number of cores.
func (m *Machine) NumCores() int { return len(m.cores) }

// Package returns the package index of a core.
func (m *Machine) Package(coreID int) int { return m.ct.corePkg[coreID] }

// OnRateChange registers fn to be called whenever a core's execution rate
// changes because some activity on the machine changed. The kernel uses this
// to reschedule pending execution breakpoints.
func (m *Machine) OnRateChange(fn func(core int)) {
	m.listeners = append(m.listeners, fn)
}

// advance accrues core c's counters up to the present.
func (m *Machine) advance(c *core) {
	now := m.eng.Now()
	if now <= c.lastUpdate {
		return
	}
	dt := now - c.lastUpdate
	c.lastUpdate = now
	if c.activity == nil {
		return // halted: the non-halt cycle counter does not advance
	}
	// Stalled portion: time passes, cycles were already injected with the
	// stall's events; no app progress.
	if c.stallUntil > now-dt {
		stallEnd := c.stallUntil
		if stallEnd > now {
			stallEnd = now
		}
		dt = now - stallEnd
	}
	if dt <= 0 {
		return
	}
	ins := float64(dt) / c.rate.NsPerIns
	c.appIns += ins
	c.hw.cycles += ins * c.rate.CPI
	c.hw.ins += ins
	refs := ins * c.rate.RefsPerIns
	c.hw.refs += refs
	c.hw.misses += refs * c.rate.MissRatio
}

func (m *Machine) advanceAll() {
	for _, c := range m.cores {
		m.advance(c)
	}
}

// recomputeRates derives every core's rate from the current activity set
// and returns the cores whose rate changed, in m.changed. It must be called
// with all cores advanced to the present.
func (m *Machine) recomputeRates() []int {
	ct := m.ct
	ct.Evaluate()
	m.changed = m.changed[:0]
	for i, c := range m.cores {
		old := c.rate
		if a := c.activity; a == nil {
			c.rate = Rate{}
		} else {
			c.rate = Rate{
				CPI:        ct.cpi[i],
				MissRatio:  ct.miss[i],
				RefsPerIns: a.RefsPerIns,
				// The topology scale is exactly 1 on homogeneous nominal
				// layouts, so (clock*freq)*1 keeps the division bit-identical
				// to the pre-topology formula.
				NsPerIns: ct.cpi[i] / (ct.clock * m.freqScale * ct.scale[i]),
			}
		}
		if c.rate != old {
			m.changed = append(m.changed, i)
		}
	}
	return m.changed
}

// SetActivity installs a new activity on a core (nil for idle). Application
// instruction progress for the core resets to zero. All affected cores'
// rates are recomputed and rate-change listeners fire for each core whose
// rate changed (other than the core being set, whose caller already knows).
func (m *Machine) SetActivity(coreID int, a *Activity) {
	m.advanceAll()
	c := m.cores[coreID]
	c.activity = a
	c.appIns = 0
	m.ct.Set(coreID, a)
	for _, id := range m.recomputeRates() {
		if id == coreID {
			continue
		}
		for _, fn := range m.listeners {
			fn(id)
		}
	}
}

// Rate returns the core's current execution rate.
func (m *Machine) Rate(coreID int) Rate { return m.cores[coreID].rate }

// SetFrequencyScale sets the machine's DVFS multiplier: the effective clock
// becomes CyclesPerNs × scale (scale 1 = nominal, 0.5 = half frequency).
// Counters are unaffected per instruction — cycles per instruction do not
// change with frequency — but wall time per instruction stretches, so a
// scaled-down machine finishes the same work later. All cores advance to
// the present first, then every changed core's rate-change listeners fire,
// keeping pending execution breakpoints consistent. Non-positive scales
// reset to nominal.
func (m *Machine) SetFrequencyScale(scale float64) {
	if scale <= 0 {
		scale = 1
	}
	if scale == m.freqScale {
		return
	}
	m.advanceAll()
	m.freqScale = scale
	for _, id := range m.recomputeRates() {
		for _, fn := range m.listeners {
			fn(id)
		}
	}
}

// CoreFrequencyScale returns the core's static topology frequency scale
// (1 on homogeneous nominal layouts); it composes multiplicatively with
// the dynamic scale SetFrequencyScale sets.
func (m *Machine) CoreFrequencyScale(coreID int) float64 { return m.ct.scale[coreID] }

// AppInstructions reports how many application instructions the core has
// completed in its current activity, as of now.
func (m *Machine) AppInstructions(coreID int) float64 {
	c := m.cores[coreID]
	m.advance(c)
	return c.appIns
}

// TimeToReach returns how long from now until the core's application
// instruction count reaches target, at the current rate. ok is false when
// the core is idle or the target is already reached.
func (m *Machine) TimeToReach(coreID int, target float64) (d sim.Time, ok bool) {
	c := m.cores[coreID]
	m.advance(c)
	if c.activity == nil || target <= c.appIns {
		return 0, false
	}
	ns := (target - c.appIns) * c.rate.NsPerIns
	d = sim.Time(ns + 0.999) // round up so the breakpoint is not early
	if stall := c.stallUntil - m.eng.Now(); stall > 0 {
		d += stall
	}
	if d < 1 {
		d = 1
	}
	return d, true
}

// Inject adds events to the core's hardware counters and stalls application
// progress for the corresponding cycles (kernel code executing on the core:
// sampling, syscall work, context-switch pollution). It returns the stall
// duration so callers can delay subsequent breakpoints.
func (m *Machine) Inject(coreID int, ev metrics.Counters) sim.Time {
	c := m.cores[coreID]
	m.advance(c)
	c.hw.add(ev)
	d := sim.Time(float64(ev.Cycles) / (m.ct.clock * m.freqScale * m.ct.scale[coreID]))
	now := m.eng.Now()
	if c.stallUntil < now {
		c.stallUntil = now
	}
	c.stallUntil += d
	return d
}

// observerEvents computes the injected perturbation of one sample on a core,
// scaling the pressure-dependent extra by the running activity's cache
// footprint (Mbench-Spin → none, Mbench-Data → full).
func (m *Machine) observerEvents(c *core, ctx metrics.SampleContext) metrics.Counters {
	var base, extra metrics.Counters
	switch ctx {
	case metrics.CtxKernel:
		base, extra = m.cfg.Observer.KernelBase, m.cfg.Observer.KernelExtra
	case metrics.CtxInterrupt:
		base, extra = m.cfg.Observer.IntrBase, m.cfg.Observer.IntrExtra
	default:
		panic(fmt.Sprintf("machine: unknown sample context %v", ctx))
	}
	pressure := 0.0
	capacity := m.ct.pkgCache[m.ct.corePkg[c.id]].CapacityBytes
	if c.activity != nil && capacity > 0 {
		pressure = c.activity.WorkingSetBytes / capacity
		if pressure > 1 {
			pressure = 1
		}
	}
	scaled := metrics.Counters{
		Cycles:       uint64(float64(extra.Cycles) * pressure),
		Instructions: uint64(float64(extra.Instructions) * pressure),
		L2Refs:       uint64(float64(extra.L2Refs) * pressure),
		L2Misses:     uint64(float64(extra.L2Misses) * pressure),
	}
	return base.Add(scaled)
}

// ReadCounters samples the core's counter registers in the given context.
// It returns the pre-sample snapshot and injects the sample's observer
// effect (which lands in the next measured period, to be compensated by the
// sampling layer), returning also the sampling stall duration.
func (m *Machine) ReadCounters(coreID int, ctx metrics.SampleContext) (metrics.Counters, sim.Time) {
	c := m.cores[coreID]
	m.advance(c)
	snap := c.hw.snapshot()
	cost := m.Inject(coreID, m.observerEvents(c, ctx))
	return snap, cost
}

// MinObserverEvents returns the minimum (Mbench-Spin) perturbation per
// sample for a context — the amount the paper's "do no harm" compensation
// subtracts.
func (m *Machine) MinObserverEvents(ctx metrics.SampleContext) metrics.Counters {
	switch ctx {
	case metrics.CtxKernel:
		return m.cfg.Observer.KernelBase
	case metrics.CtxInterrupt:
		return m.cfg.Observer.IntrBase
	default:
		panic(fmt.Sprintf("machine: unknown sample context %v", ctx))
	}
}

// PollutionEvents returns the counter events of a context-switch cache
// refill for an incoming activity, ready to Inject.
func (m *Machine) PollutionEvents(a *Activity) metrics.Counters {
	if a == nil {
		return metrics.Counters{}
	}
	cycles, refs, misses := cache.PollutionCost(m.cfg.Cache, a.WorkingSetBytes, m.ct.penalty)
	return metrics.Counters{
		Cycles:   uint64(cycles),
		L2Refs:   uint64(refs),
		L2Misses: uint64(misses),
	}
}
