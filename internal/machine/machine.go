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

// clock returns the resolved cycles-per-ns rate.
func (c Config) clock() float64 {
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
	if c.clock() <= 0 {
		return fmt.Errorf("machine: CyclesPerNs must be positive, got %v", c.clock())
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
	id, pkg    int
	hw         fcounters
	activity   *Activity
	rate       Rate
	appIns     float64  // application instructions completed in current activity
	lastUpdate sim.Time // counters are accurate as of this instant
	stallUntil sim.Time // no app progress before this (sampling/pollution stalls)
}

// Machine is the simulated multicore. It is single-threaded, like the
// simulation engine that drives it.
type Machine struct {
	eng       *sim.Engine
	cfg       Config
	topo      Topology
	clock     float64 // resolved cycles per ns at nominal frequency
	cores     []*core
	listeners []func(core int)
	// pkgBase[p]/pkgCores[p] locate package p's contiguous core range;
	// pkgCache[p] is its shared-cache config (Config.Cache with the
	// package's CacheMB override applied, if any).
	pkgBase  []int
	pkgCores []int
	pkgCache []cache.Config
	// coreScale[i] is core i's static topology frequency scale; it composes
	// multiplicatively with the dynamic machine-wide freqScale.
	coreScale []float64
	// penaltyFactor is the current machine-wide bandwidth inflation.
	penaltyFactor float64
	// freqScale is the DVFS multiplier on the configured clock: the
	// effective rate is CyclesPerNs × freqScale. 1 is nominal frequency;
	// fault injection scales it down for node-slowdown windows.
	freqScale float64

	// recomputeRates scratch, reused across calls so the per-activity-change
	// rate derivation allocates nothing. Used strictly within one
	// recomputeRates call (before any listener fires), so reuse is safe.
	missScratch   []float64
	demandScratch []*cache.Demand
	demandBuf     []cache.Demand
}

// New builds a machine on the given engine. It panics on an invalid
// configuration (a programming error, not a runtime condition).
func New(eng *sim.Engine, cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{eng: eng, cfg: cfg, topo: cfg.Topology,
		clock: cfg.clock(), penaltyFactor: 1, freqScale: 1}
	maxPkgCores := 0
	for p, ps := range m.topo.Packages {
		m.pkgBase = append(m.pkgBase, len(m.cores))
		m.pkgCores = append(m.pkgCores, ps.Cores)
		pc := cfg.Cache
		if ps.CacheMB > 0 {
			pc.CapacityBytes = ps.CacheMB * (1 << 20)
		}
		m.pkgCache = append(m.pkgCache, pc)
		for j := 0; j < ps.Cores; j++ {
			m.cores = append(m.cores, &core{id: len(m.cores), pkg: p})
			m.coreScale = append(m.coreScale, ps.FreqScale)
		}
		if ps.Cores > maxPkgCores {
			maxPkgCores = ps.Cores
		}
	}
	m.missScratch = make([]float64, len(m.cores))
	m.demandScratch = make([]*cache.Demand, maxPkgCores)
	m.demandBuf = make([]cache.Demand, maxPkgCores)
	return m
}

// Topology returns the machine's resolved package/core layout.
func (m *Machine) Topology() Topology { return m.topo }

// NumCores returns the number of cores.
func (m *Machine) NumCores() int { return len(m.cores) }

// Package returns the package index of a core.
func (m *Machine) Package(coreID int) int { return m.cores[coreID].pkg }

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

// recomputeRates derives every core's rate from the current activity set.
// It must be called with all cores advanced to the present.
func (m *Machine) recomputeRates() (changed []int) {
	// Effective miss ratios per package.
	miss := m.missScratch
	for p := range m.pkgBase {
		base, n := m.pkgBase[p], m.pkgCores[p]
		demands := m.demandScratch[:n]
		for j := 0; j < n; j++ {
			a := m.cores[base+j].activity
			if a == nil {
				demands[j] = nil
				continue
			}
			m.demandBuf[j] = cache.Demand{
				RefsPerIns:      a.RefsPerIns,
				SoloMissRatio:   a.SoloMissRatio,
				WorkingSetBytes: a.WorkingSetBytes,
			}
			demands[j] = &m.demandBuf[j]
		}
		cache.MissRatiosInto(m.pkgCache[p], demands, miss[base:base+n])
	}
	// Machine-wide bandwidth pressure.
	var traffic float64
	for i, c := range m.cores {
		if c.activity != nil {
			traffic += c.activity.RefsPerIns * miss[i]
		}
	}
	m.penaltyFactor = cache.PenaltyFactor(m.cfg.Cache, traffic)
	for i, c := range m.cores {
		old := c.rate
		if c.activity == nil {
			c.rate = Rate{}
		} else {
			cpi := cache.CPI(m.pkgCache[c.pkg], c.activity.BaseCPI, c.activity.RefsPerIns,
				miss[i], m.penaltyFactor)
			c.rate = Rate{
				CPI:        cpi,
				MissRatio:  miss[i],
				RefsPerIns: c.activity.RefsPerIns,
				// The topology scale is exactly 1 on homogeneous nominal
				// layouts, so (clock*freq)*1 keeps the division bit-identical
				// to the pre-topology formula.
				NsPerIns: cpi / (m.clock * m.freqScale * m.coreScale[i]),
			}
		}
		if c.rate != old {
			changed = append(changed, i)
		}
	}
	return changed
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
	changed := m.recomputeRates()
	for _, id := range changed {
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
	changed := m.recomputeRates()
	for _, id := range changed {
		for _, fn := range m.listeners {
			fn(id)
		}
	}
}

// CoreFrequencyScale returns the core's static topology frequency scale
// (1 on homogeneous nominal layouts); it composes multiplicatively with
// the dynamic scale SetFrequencyScale sets.
func (m *Machine) CoreFrequencyScale(coreID int) float64 { return m.coreScale[coreID] }

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
	d := sim.Time(float64(ev.Cycles) / (m.clock * m.freqScale * m.coreScale[coreID]))
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
	if c.activity != nil && m.pkgCache[c.pkg].CapacityBytes > 0 {
		pressure = c.activity.WorkingSetBytes / m.pkgCache[c.pkg].CapacityBytes
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
	cycles, refs, misses := cache.PollutionCost(m.cfg.Cache, a.WorkingSetBytes, m.penaltyFactor)
	return metrics.Counters{
		Cycles:   uint64(cycles),
		L2Refs:   uint64(refs),
		L2Misses: uint64(misses),
	}
}
