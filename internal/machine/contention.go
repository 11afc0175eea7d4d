package machine

import "repro/internal/cache"

// Contention is one machine's shared-cache contention model: the resolved
// layout of a Config (each package's cache with its CacheMB override, each
// core's static frequency scale, the clock) and the evaluation that turns
// the cores' occupants into per-core miss ratios, the machine-wide
// bandwidth penalty and per-core CPI. Machine runs one; so does every
// serving-fleet node, so the offline kernel and the fleet price contention
// with the same code. Callers turn CPI into a rate with their own formula.
type Contention struct {
	mem      cache.Config   // Config.Cache: the memory bus the penalty prices
	clock    float64        // resolved cycles per ns at nominal frequency
	pkgEnd   []int          // package p holds cores [pkgEnd[p-1], pkgEnd[p])
	pkgCache []cache.Config // per package, CacheMB applied
	corePkg  []int
	scale    []float64 // per-core static topology frequency scale

	occ     []*Activity // per-core occupant, nil when idle
	miss    []float64
	cpi     []float64
	penalty float64

	// Evaluate scratch: demands[i] is &demandBuf[i], or nil when idle.
	demands   []*cache.Demand
	demandBuf []cache.Demand
}

// NewContention resolves cfg's layout with every core idle. It panics on
// an invalid configuration, like New.
func NewContention(cfg Config) *Contention {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.NumCores()
	ct := &Contention{mem: cfg.Cache, clock: cfg.Clock(), penalty: 1,
		corePkg: make([]int, 0, n), scale: make([]float64, 0, n),
		occ: make([]*Activity, n), miss: make([]float64, n), cpi: make([]float64, n),
		demands: make([]*cache.Demand, n), demandBuf: make([]cache.Demand, n)}
	for p, ps := range cfg.Topology.Packages {
		pc := cfg.Cache
		if ps.CacheMB > 0 {
			pc.CapacityBytes = ps.CacheMB * (1 << 20)
		}
		ct.pkgCache = append(ct.pkgCache, pc)
		for j := 0; j < ps.Cores; j++ {
			ct.corePkg = append(ct.corePkg, p)
			ct.scale = append(ct.scale, ps.FreqScale)
		}
		ct.pkgEnd = append(ct.pkgEnd, len(ct.corePkg))
	}
	return ct
}

// Clock returns the resolved nominal cycles per ns.
func (ct *Contention) Clock() float64 { return ct.clock }

// Scale returns core i's static topology frequency scale.
func (ct *Contention) Scale(i int) float64 { return ct.scale[i] }

// Set installs core i's occupant (nil for idle). It takes effect at the
// next Evaluate.
func (ct *Contention) Set(i int, a *Activity) { ct.occ[i] = a }

// CPI returns core i's CPI from the last Evaluate (0 when idle).
func (ct *Contention) CPI(i int) float64 { return ct.cpi[i] }

// Evaluate prices the current occupant set: each package's effective miss
// ratios under capacity sharing, then the machine-wide bandwidth penalty
// from the summed miss traffic, then every busy core's CPI. It allocates
// nothing.
func (ct *Contention) Evaluate() {
	for i, a := range ct.occ {
		ct.demands[i] = nil
		if a != nil {
			ct.demandBuf[i] = cache.Demand{RefsPerIns: a.RefsPerIns, SoloMissRatio: a.SoloMissRatio, WorkingSetBytes: a.WorkingSetBytes}
			ct.demands[i] = &ct.demandBuf[i]
		}
	}
	start := 0
	for p, end := range ct.pkgEnd {
		cache.MissRatiosInto(ct.pkgCache[p], ct.demands[start:end], ct.miss[start:end])
		start = end
	}
	var traffic float64
	for i, a := range ct.occ {
		if a != nil {
			traffic += a.RefsPerIns * ct.miss[i]
		}
	}
	ct.penalty = cache.PenaltyFactor(ct.mem, traffic)
	for i, a := range ct.occ {
		if a == nil {
			ct.cpi[i] = 0
			continue
		}
		ct.cpi[i] = cache.CPI(ct.pkgCache[ct.corePkg[i]], a.BaseCPI, a.RefsPerIns, ct.miss[i], ct.penalty)
	}
}
