// Fleet mode: the serving pipeline sharded across a simulated fleet of
// machines. One deterministic stream feeds every node; a placement policy
// (round-robin or contention-easing) routes each arrival to a core queue;
// cores execute head-of-queue requests under the paper's shared-cache
// contention model, which each node's machine.Contention evaluates from
// tick-start snapshots; each node keeps its own sliding window and
// compacted signature bank, and the fleet periodically merges the per-node
// banks into one global bank that every node adopts (mergeBanks, bank.go).
// Arrivals come through the same intake as the single-node engine's
// (templates.go); placement, shedding and degrading are the fleet's own.
//
// A tick runs on the calling goroutine: ingest, rate snapshots, package
// execution and aggregation all go in (node, package) order. A tick is
// only ~29µs of work, too little to pay for handing packages to workers:
// a per-package pool measured 0.84× (ease) and 0.92× (rr) of serial at
// two workers.
package serve

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// FleetPolicy selects the fleet's placement policy by its canonical name
// (see FleetPolicies for the registry and the accepted aliases).
type FleetPolicy string

const (
	// FleetRoundRobin cycles arrivals across nodes, filling each node's
	// shortest core queue.
	FleetRoundRobin FleetPolicy = "round-robin"
	// FleetContentionEase places predicted high-usage requests on the
	// fleet package with the least queued high-usage pressure, easing
	// shared-cache contention (the paper's Section 5.2 policy, fleet-wide).
	FleetContentionEase FleetPolicy = "contention-easing"
	// FleetScaleOut starts with one active node and reactively grows or
	// shrinks the active set from a saturation signal — the per-package
	// count of queued predicted-high requests. Placement within the active
	// set follows FleetContentionEase.
	FleetScaleOut FleetPolicy = "scale-out"
)

// FleetConfig specifies a fleet-mode run. Start from DefaultFleetConfig.
type FleetConfig struct {
	// Stream is the fleet-wide arrival process.
	Stream workload.StreamConfig
	// Nodes is the fleet: one machine topology per node (at least one).
	Nodes []machine.Topology
	// Policy is the placement policy (empty means FleetRoundRobin).
	Policy FleetPolicy

	// TickNs is the virtual tick length (default 1ms). Contention rates
	// refresh once per tick from head-of-queue snapshots.
	TickNs int64
	// QueueCap is each core's queue capacity; an arrival routed to a full
	// core is shed.
	QueueCap int
	// DegradeDepth is the core queue depth at which newly admitted
	// requests degrade to cached-template serving: a constant
	// CostDegradedNs drain instead of instruction execution (the
	// single-node engine's overload tier, per core).
	DegradeDepth int
	// CostDegradedNs is the constant virtual cost of draining one
	// degraded request.
	CostDegradedNs int64

	// TemplatesPerApp and MaxPatternLen size the behavior template
	// libraries (see the single-node engine).
	TemplatesPerApp int
	MaxPatternLen   int

	// WindowSize is each node's sliding window of completions feeding its
	// bank compaction; CompactTicks the per-node compaction interval;
	// BankK the compacted bank size.
	WindowSize   int
	CompactTicks int
	BankK        int
	// MergeEvery is how many per-node compaction rounds pass between
	// fleet-wide bank merges (0 disables merging).
	MergeEvery int
	// CalibrationQuantile and CalibrationHeadroom set each node's anomaly
	// threshold from its window scores.
	CalibrationQuantile float64
	CalibrationHeadroom float64
	// ScoreSampleEvery identifies every Nth completed request against the
	// node bank for anomaly flagging (1 = every request; zero means 1, and
	// a negative value is an error).
	ScoreSampleEvery int

	// ScaleHighWater, ScaleLowWater, and ScaleCooldownTicks tune the
	// FleetScaleOut policy (ignored otherwise). A package counts saturated
	// when its queued predicted-high requests per core reach ScaleHighWater;
	// the fleet activates another node when at least half its active
	// packages are saturated, and deactivates its newest node when the
	// fleet-wide queued-high count per active core falls to ScaleLowWater
	// and that node has drained. ScaleCooldownTicks separates consecutive
	// scaling actions. Zero values take the defaults (2, 0.25, 25);
	// negative values are errors.
	ScaleHighWater     float64
	ScaleLowWater      float64
	ScaleCooldownTicks int

	// Workers is ignored: the fleet runs every tick on the calling
	// goroutine. It remains so existing callers keep compiling.
	Workers int
	// Obs, when non-nil, collects fleet counters. Results are identical
	// either way.
	Obs *obs.Collector
}

// DefaultFleet is the standard heterogeneous 16-core evaluation fleet: the
// paper's box, a slow 4-core node, and a fast 8-core node with bigger
// caches.
func DefaultFleet() []machine.Topology {
	fleet, err := machine.ParseFleet("pkg=2,2/pkg=4:0.85/pkg=4:1.15:8,4:1.15:8")
	if err != nil {
		panic(err)
	}
	return fleet
}

// DefaultFleetStream is the fleet arrival process: a webserver-heavy mix
// under diurnal-style modulation, one flash crowd, slow drift, and four
// behavior cohorts whose drift rates fan out.
func DefaultFleetStream(seed int64) workload.StreamConfig {
	return workload.StreamConfig{
		RatePerSec: 24_000,
		Apps: []workload.StreamApp{
			{Name: "webserver", Weight: 6},
			{Name: "tpcc", Weight: 2},
			{Name: "rubis", Weight: 2},
		},
		Periods: []workload.StreamPeriod{
			{PeriodNs: 2e9, Amplitude: 0.3},
			{PeriodNs: 13e9, Amplitude: 0.2, Phase: 0.25},
		},
		Bursts:       []workload.StreamBurst{{StartNs: 5e9, DurationNs: 1.5e9, Factor: 2}},
		DriftPerSec:  0.004,
		Cohorts:      4,
		CohortSpread: 0.75,
		Seed:         seed,
	}
}

// DefaultFleetConfig returns the standard fleet-mode configuration on
// DefaultFleet over DefaultFleetStream(seed).
func DefaultFleetConfig(seed int64) FleetConfig {
	return FleetConfig{
		Stream:              DefaultFleetStream(seed),
		Nodes:               DefaultFleet(),
		TickNs:              1e6,
		QueueCap:            256,
		DegradeDepth:        192,
		CostDegradedNs:      300,
		TemplatesPerApp:     24,
		MaxPatternLen:       256,
		WindowSize:          512,
		CompactTicks:        500,
		BankK:               16,
		MergeEvery:          4,
		CalibrationQuantile: 0.99,
		CalibrationHeadroom: 1.5,
		ScoreSampleEvery:    8,
		ScaleHighWater:      2,
		ScaleLowWater:       0.25,
		ScaleCooldownTicks:  25,
	}
}

// normalize fills defaults and validates, naming the offending field.
func (c FleetConfig) normalize() (FleetConfig, error) {
	if err := c.Stream.Validate(); err != nil {
		return c, err
	}
	if len(c.Nodes) == 0 {
		return c, fmt.Errorf("serve: FleetConfig.Nodes must have at least one node")
	}
	for i, t := range c.Nodes {
		if err := t.Validate(); err != nil {
			return c, fmt.Errorf("serve: FleetConfig.Nodes[%d]: %w", i, err)
		}
	}
	if c.Policy == "" {
		c.Policy = FleetRoundRobin
	}
	known := false
	for _, p := range fleetPolicies {
		known = known || p.Policy == c.Policy
	}
	if !known {
		return c, fmt.Errorf("serve: FleetConfig.Policy unknown: %q", c.Policy)
	}
	if math.IsNaN(c.ScaleHighWater) || math.IsInf(c.ScaleHighWater, 0) {
		return c, fmt.Errorf("serve: FleetConfig.ScaleHighWater must be finite, got %v", c.ScaleHighWater)
	}
	if math.IsNaN(c.ScaleLowWater) || math.IsInf(c.ScaleLowWater, 0) {
		return c, fmt.Errorf("serve: FleetConfig.ScaleLowWater must be finite, got %v", c.ScaleLowWater)
	}
	if c.ScaleHighWater < 0 {
		return c, fmt.Errorf("serve: FleetConfig.ScaleHighWater must be non-negative, got %g", c.ScaleHighWater)
	}
	if c.ScaleLowWater < 0 {
		return c, fmt.Errorf("serve: FleetConfig.ScaleLowWater must be non-negative, got %g", c.ScaleLowWater)
	}
	if c.ScaleCooldownTicks < 0 {
		return c, fmt.Errorf("serve: FleetConfig.ScaleCooldownTicks must be non-negative, got %d", c.ScaleCooldownTicks)
	}
	if c.ScaleHighWater == 0 {
		c.ScaleHighWater = 2
	}
	if c.ScaleLowWater == 0 {
		c.ScaleLowWater = 0.25
	}
	if c.ScaleCooldownTicks == 0 {
		c.ScaleCooldownTicks = 25
	}
	if c.ScaleLowWater >= c.ScaleHighWater {
		return c, fmt.Errorf("serve: FleetConfig.ScaleLowWater %g must be below ScaleHighWater %g",
			c.ScaleLowWater, c.ScaleHighWater)
	}
	tk := tickKnobs{c.TickNs, c.CostDegradedNs, c.QueueCap, c.DegradeDepth, c.TemplatesPerApp, c.CompactTicks}
	if err := tk.validate("serve: FleetConfig."); err != nil {
		return c, err
	}
	if err := c.bankKnobs().validate("serve: FleetConfig."); err != nil {
		return c, err
	}
	if c.MergeEvery < 0 {
		return c, fmt.Errorf("serve: FleetConfig.MergeEvery must be non-negative, got %d", c.MergeEvery)
	}
	if c.ScoreSampleEvery < 0 {
		return c, fmt.Errorf("serve: FleetConfig.ScoreSampleEvery must be non-negative, got %d", c.ScoreSampleEvery)
	}
	if c.ScoreSampleEvery == 0 {
		c.ScoreSampleEvery = 1
	}
	return c, nil
}

// bankKnobs extracts each node's bank maintainer settings.
func (c FleetConfig) bankKnobs() bankKnobs {
	return bankKnobs{c.WindowSize, c.BankK, c.MaxPatternLen, c.CalibrationQuantile, c.CalibrationHeadroom}
}

// fleetReq is one queued request on a core.
type fleetReq struct {
	reqRec
	arrivalNs int64
	remIns    float64 // instructions left to execute
	predHigh  bool
	degraded  bool
	// scored marks the requests sampled for anomaly scoring at completion:
	// every ScoreSampleEvery-th arrival, unless it was degraded.
	scored bool
}

// fleetCore is one core's FIFO queue plus its tick-rate snapshot. The
// queue is a ring of exactly QueueCap slots: q[head] is the oldest request
// and n requests are queued, so retiring a completed prefix moves no
// queued request.
type fleetCore struct {
	q    []fleetReq // ring storage, len(q) == QueueCap
	head int
	n    int
	pkg  int // index into Fleet.pkgs
	// Tick-start snapshot (serial phase): the head request's activity and
	// its instruction rate under the node's contention (its CPI stays in
	// the node's Contention). Zero insPerNs means idle.
	act      machine.Activity
	insPerNs float64
}

// at returns queued request i, i ∈ [0, n), oldest first.
func (c *fleetCore) at(i int) *fleetReq {
	i += c.head
	if i >= len(c.q) {
		i -= len(c.q)
	}
	return &c.q[i]
}

// full reports whether the ring holds QueueCap requests.
func (c *fleetCore) full() bool { return c.n == len(c.q) }

// push appends r at the tail; the caller checks full first.
func (c *fleetCore) push(r fleetReq) {
	c.n++
	*c.at(c.n - 1) = r
}

// drop retires the k oldest requests.
func (c *fleetCore) drop(k int) {
	c.head += k
	if c.head >= len(c.q) {
		c.head -= len(c.q)
	}
	c.n -= k
}

// pkgTally is one package's per-tick outcome, folded into its node and
// the fleet by aggregate. The float sums stay per package because the
// goldens pin that summation order: package sums first, then node and
// fleet totals.
type pkgTally struct {
	completed       uint64
	flagged         uint64
	flaggedInjected uint64
	scoreSum        float64
	cycles, ins     float64 // executed work, for CPI accounting
}

// fleetPkg is one package of one node: the cores sharing one cache, the
// unit of contention-easing placement and of the per-tick tallies.
type fleetPkg struct {
	node       int
	cores      []int // node-local core indices
	queuedHigh int   // predicted-high requests queued here

	tally pkgTally
}

// fleetNode is one machine of the fleet.
type fleetNode struct {
	ct    *machine.Contention // the node's contention model, one slot per core
	cores []fleetCore
	pkgs  []int // indices into Fleet.pkgs

	// bm owns the node's bank, threshold, and sliding window (also
	// Fleet.bms[node]).
	bm *bankMaintainer

	hist *obs.Histogram
	res  NodeResult
}

// Fleet is a running fleet-mode pipeline. Methods are not safe for
// concurrent use, and the fleet starts no goroutines.
type Fleet struct {
	cfg    FleetConfig
	in     intake
	nodes  []*fleetNode
	bms    []*bankMaintainer // the nodes' maintainers, node order
	ws     *workspace        // the compaction workspace every node shares
	pkgs   []*fleetPkg       // all packages, node order
	patBuf []float64         // pattern scratch for sampled completion scoring

	// fleetThresholds classifies predicted high usage at admission, one
	// threshold per arrival cohort (index 0 when cohorts are disabled).
	// Every entry starts at the template median; at each merge the
	// thresholds refresh from per-cohort medians of the fleet's window
	// records, so a cohort whose drift inflates its costs is judged
	// against its own population rather than the fleet-wide one.
	fleetThresholds []float64
	cohortCPUs      [][]float64 // per-cohort merge scratch

	rrSeq uint64
	tick  uint64
	nowNs int64

	// active is the number of routable nodes (a prefix of nodes, in config
	// order). Non-scale-out policies route across the whole fleet; the
	// scale-out policy starts at one node and adjusts serially at ingest
	// tick starts, so scaling decisions are deterministic.
	active   int
	cooldown int // ticks until the next scaling action is allowed

	res FleetResult

	fleetHist *obs.Histogram

	cArrivals, cShed, cDegraded, cCompleted *obs.Counter
	cFlagged, cMerges                       *obs.Counter
}

// NewFleet builds the fleet: per-node topologies, template libraries,
// and per-node template banks.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	in, err := newIntake(cfg.Stream, cfg.TemplatesPerApp, cfg.MaxPatternLen)
	if err != nil {
		return nil, err
	}
	// Scored patterns are templates, so none is longer than the library's
	// longest template.
	longest := longestPattern(in.tmpl)
	// Nodes compact one after another, so one workspace serves them all,
	// sized for a window or a merge of every node's bank (library or BankK).
	mcap := len(cfg.Nodes) * max(cfg.BankK, cfg.TemplatesPerApp*len(in.tmpl))
	f := &Fleet{cfg: cfg, in: in, patBuf: make([]float64, 0, longest), ws: newWorkspace(cfg.bankKnobs(), longest, mcap)}
	for ni, topo := range cfg.Nodes {
		mc := machine.DefaultConfig()
		mc.Topology = topo
		n := &fleetNode{
			ct: machine.NewContention(mc),
			bm: newBankMaintainer(cfg.bankKnobs(), in.tmpl, cfg.Stream.Apps, cfg.Stream.Seed+int64(ni)*1_000_003, f.ws),
		}
		n.res.Node = ni
		n.res.Topology = topo.String()
		n.cores = make([]fleetCore, 0, topo.NumCores())
		for _, ps := range topo.Packages {
			pkg := &fleetPkg{node: ni}
			for j := 0; j < ps.Cores; j++ {
				pkg.cores = append(pkg.cores, len(n.cores))
				n.cores = append(n.cores, fleetCore{q: make([]fleetReq, cfg.QueueCap), pkg: len(f.pkgs)})
			}
			n.pkgs = append(n.pkgs, len(f.pkgs))
			f.pkgs = append(f.pkgs, pkg)
		}
		n.hist = obs.NewHistogram(fmt.Sprintf("fleet.node%d.latency.ns", ni))
		f.nodes = append(f.nodes, n)
		f.bms = append(f.bms, n.bm)
	}
	nc := cfg.Stream.Cohorts
	if nc < 1 {
		nc = 1
	}
	f.fleetThresholds = make([]float64, nc)
	for i := range f.fleetThresholds {
		f.fleetThresholds[i] = f.nodes[0].bm.bank.ThresholdNs
	}
	f.cohortCPUs = make([][]float64, nc)
	for i := range f.cohortCPUs {
		f.cohortCPUs[i] = make([]float64, 0, len(f.nodes)*cfg.WindowSize)
	}
	f.fleetHist = obs.NewHistogram("fleet.latency.ns")
	f.res.Policy = string(cfg.Policy)
	f.active = len(f.nodes)
	if cfg.Policy == FleetScaleOut {
		f.active = 1
	}
	if c := cfg.Obs; c != nil {
		c.RegisterHistogram(f.fleetHist)
		for _, n := range f.nodes {
			c.RegisterHistogram(n.hist)
		}
		f.cArrivals = c.Counter("fleet.arrivals")
		f.cShed = c.Counter("fleet.shed")
		f.cDegraded = c.Counter("fleet.degraded")
		f.cCompleted = c.Counter("fleet.completed")
		f.cFlagged = c.Counter("fleet.flagged")
		f.cMerges = c.Counter("fleet.merges")
	}
	return f, nil
}

// Process advances the fleet until at least n more arrivals have been
// ingested (admitted or shed), then finishes the tick.
func (f *Fleet) Process(n int) {
	var ingested int
	for ingested < n {
		ingested += f.runTick(true)
	}
}

// Drain runs ticks without ingesting until every core queue is empty.
func (f *Fleet) Drain() {
	for {
		f.runTick(false)
		if f.Queued() == 0 {
			return
		}
	}
}

// runTick executes one tick: ingest, rate snapshots, package execution,
// aggregation, and periodic compaction.
func (f *Fleet) runTick(ingest bool) int {
	tickEnd := f.nowNs + f.cfg.TickNs
	var arrivals int
	if ingest {
		if f.cfg.Policy == FleetScaleOut {
			f.updateScale()
		}
		arrivals = f.ingest(tickEnd)
	}
	f.snapshotRates()
	for _, pkg := range f.pkgs {
		f.processPkg(pkg)
	}
	f.aggregate()
	f.nowNs = tickEnd
	f.tick++
	if f.tick%uint64(f.cfg.CompactTicks) == 0 {
		for _, n := range f.nodes {
			n.bm.compact()
		}
		f.res.CompactionRounds++
		if f.cfg.MergeEvery > 0 && f.res.CompactionRounds%uint64(f.cfg.MergeEvery) == 0 {
			f.merge()
		}
	}
	return arrivals
}

// ingest routes stream arrivals up to the tick boundary through the
// placement policy. Placement reads every arrival's predicted class, so
// every injected anomaly counts, shed or not.
func (f *Fleet) ingest(tickEnd int64) int {
	var n int
	for {
		rec, timeNs, seq, ok := f.in.next(tickEnd)
		if !ok {
			return n
		}
		n++
		f.res.Arrivals++
		f.cArrivals.Add(1)
		if rec.anom {
			f.res.Injected++
		}
		r := fleetReq{
			reqRec:    rec,
			arrivalNs: timeNs,
			remIns:    f.in.tmpl[rec.app][rec.tmpl].ins,
			predHigh:  rec.cpuNs > f.fleetThresholds[rec.cohort],
		}
		node, core := f.place(&r)
		nd := f.nodes[node]
		c := &nd.cores[core]
		if c.full() {
			f.res.Shed++
			nd.res.Shed++
			f.cShed.Add(1)
			continue
		}
		if c.n >= f.cfg.DegradeDepth {
			r.degraded = true
			f.res.Degraded++
			nd.res.Degraded++
			f.cDegraded.Add(1)
		}
		// Degraded requests skip identification entirely — that is what the
		// degraded tier buys — so they are never scored or flagged.
		r.scored = !r.degraded && seq%uint64(f.cfg.ScoreSampleEvery) == 0
		c.push(r)
		if r.predHigh {
			f.pkgs[c.pkg].queuedHigh++
		}
		if c.n > nd.res.MaxQueueDepth {
			nd.res.MaxQueueDepth = c.n
		}
	}
}

// updateScale is the scale-out policy's serial control loop, run at the
// start of every ingesting tick before arrivals route. It counts saturated
// active packages against the high-water mark to grow the active set, and
// shrinks from the newest active node when fleet-wide queued-high pressure
// falls under the low-water mark and that node has drained. At most one
// action per cooldown window, so the fleet cannot thrash.
func (f *Fleet) updateScale() {
	if f.cooldown > 0 {
		f.cooldown--
		return
	}
	var pkgs, cores, queuedHigh, saturated int
	for _, pkg := range f.pkgs {
		if pkg.node >= f.active {
			continue
		}
		pkgs++
		cores += len(pkg.cores)
		queuedHigh += pkg.queuedHigh
		if float64(pkg.queuedHigh) >= f.cfg.ScaleHighWater*float64(len(pkg.cores)) {
			saturated++
		}
	}
	switch {
	case 2*saturated >= pkgs && f.active < len(f.nodes):
		f.active++
		f.res.ScaleUps++
		f.cooldown = f.cfg.ScaleCooldownTicks
	case f.active > 1 &&
		float64(queuedHigh) <= f.cfg.ScaleLowWater*float64(cores) &&
		f.nodeIdle(f.active-1):
		f.active--
		f.res.ScaleDowns++
		f.cooldown = f.cfg.ScaleCooldownTicks
	}
}

// nodeIdle reports whether every core queue of a node is empty.
func (f *Fleet) nodeIdle(ni int) bool {
	nd := f.nodes[ni]
	for i := range nd.cores {
		if nd.cores[i].n > 0 {
			return false
		}
	}
	return true
}

// place picks the (node, core) for an arrival. All tie-breaks are by lowest
// index, so placement is deterministic. Routing only ever considers the
// active node prefix — the whole fleet except under scale-out.
func (f *Fleet) place(r *fleetReq) (node, core int) {
	ease := f.cfg.Policy == FleetContentionEase || f.cfg.Policy == FleetScaleOut
	if ease && r.predHigh {
		// Least high-usage pressure per core across the active packages.
		bestPkg, best := -1, math.Inf(1)
		for pi, pkg := range f.pkgs {
			if pkg.node >= f.active {
				continue
			}
			p := float64(pkg.queuedHigh) / float64(len(pkg.cores))
			if p < best {
				best, bestPkg = p, pi
			}
		}
		pkg := f.pkgs[bestPkg]
		return pkg.node, shortestCore(f.nodes[pkg.node], pkg.cores)
	}
	if ease {
		// Low-usage requests fill the shortest active queue.
		bestNode, bestCore, best := 0, 0, int(^uint(0)>>1)
		for ni, nd := range f.nodes[:f.active] {
			for ci := range nd.cores {
				if l := nd.cores[ci].n; l < best {
					best, bestNode, bestCore = l, ni, ci
				}
			}
		}
		return bestNode, bestCore
	}
	// Round-robin across active nodes, shortest queue within the node.
	node = int(f.rrSeq % uint64(f.active))
	f.rrSeq++
	nd := f.nodes[node]
	core = 0
	for ci := 1; ci < len(nd.cores); ci++ {
		if nd.cores[ci].n < nd.cores[core].n {
			core = ci
		}
	}
	return node, core
}

// shortestCore returns the package core with the shortest queue (lowest
// index on ties).
func shortestCore(nd *fleetNode, cores []int) int {
	best := cores[0]
	for _, ci := range cores[1:] {
		if nd.cores[ci].n < nd.cores[best].n {
			best = ci
		}
	}
	return best
}

// snapshotRates derives every core's tick execution rate from the
// head-of-queue occupant set through each node's machine.Contention — the
// offline machine's shared-cache and bandwidth model — before any package
// executes.
func (f *Fleet) snapshotRates() {
	for _, nd := range f.nodes {
		ct := nd.ct
		for ci := range nd.cores {
			c := &nd.cores[ci]
			if c.n == 0 {
				ct.Set(ci, nil)
				continue
			}
			r := &c.q[c.head]
			c.act = f.in.tmpl[r.app][r.tmpl].act
			c.act.RefsPerIns *= r.drift
			if r.anom {
				// Injected anomalies behave as cache polluters.
				c.act.RefsPerIns *= anomalyPatFactor
				c.act.WorkingSetBytes *= anomalyPatFactor
			}
			ct.Set(ci, &c.act)
		}
		ct.Evaluate()
		for ci := range nd.cores {
			c := &nd.cores[ci]
			c.insPerNs = 0
			if c.n > 0 {
				c.insPerNs = ct.Clock() * ct.Scale(ci) / ct.CPI(ci)
			}
		}
	}
}

// processPkg burns each of the package's cores' tick budgets on their
// queues. Rates are the tick-start snapshot; a core that finishes its head
// continues into the next request at the same rate (rates refresh at tick
// granularity).
func (f *Fleet) processPkg(pkg *fleetPkg) {
	nd := f.nodes[pkg.node]
	for _, ci := range pkg.cores {
		c := &nd.cores[ci]
		if c.insPerNs == 0 || c.n == 0 {
			continue
		}
		cpi := nd.ct.CPI(ci)
		budget := float64(f.cfg.TickNs)
		done := 0
		for ; done < c.n; done++ {
			r := c.at(done)
			if r.degraded {
				// Cached-template serving: a constant drain cost, no
				// instruction execution and no CPI contribution.
				cost := float64(f.cfg.CostDegradedNs)
				if cost > budget {
					break
				}
				budget -= cost
			} else {
				need := r.remIns / c.insPerNs
				if need > budget {
					ran := budget * c.insPerNs
					r.remIns -= ran
					pkg.tally.ins += ran
					pkg.tally.cycles += ran * cpi
					break
				}
				budget -= need
				pkg.tally.ins += r.remIns
				pkg.tally.cycles += r.remIns * cpi
			}
			r.remIns = 0
			f.completeFleet(pkg, nd, r, f.nowNs+f.cfg.TickNs-int64(budget))
		}
		// The sweep stops at the first request it cannot finish, so the
		// completed requests are exactly the first done.
		c.drop(done)
	}
}

// completeFleet finalizes a request: latency histograms, sampled anomaly
// scoring against the node bank, tallies, and the window record.
func (f *Fleet) completeFleet(pkg *fleetPkg, nd *fleetNode, r *fleetReq, doneNs int64) {
	pkg.tally.completed++
	if r.predHigh {
		pkg.queuedHigh--
	}
	lat := doneNs - r.arrivalNs
	if lat < 0 {
		// A request that arrives late in the tick and completes within the
		// same tick's budget sweep reads as instantaneous.
		lat = 0
	}
	nd.hist.Observe(lat)
	f.fleetHist.Observe(lat)
	if r.scored {
		f.patBuf = appendPattern(f.patBuf[:0], f.in.tmpl[r.app][r.tmpl].pattern, r.drift, r.anom)
		_, dist := nd.bm.cols.Identify(f.patBuf)
		score := dist / float64(len(f.patBuf))
		pkg.tally.scoreSum += score
		if score > nd.bm.threshold {
			pkg.tally.flagged++
			if r.anom {
				pkg.tally.flaggedInjected++
			}
		}
	}
	nd.bm.push(r.reqRec)
}

// aggregate folds package tallies in (node, package) order — which is
// how f.pkgs is laid out.
func (f *Fleet) aggregate() {
	for _, pkg := range f.pkgs {
		nd := f.nodes[pkg.node]
		t := &pkg.tally
		nd.res.Completed += t.completed
		nd.res.Flagged += t.flagged
		nd.res.FlaggedInjected += t.flaggedInjected
		nd.res.ScoreSum += t.scoreSum
		nd.res.Cycles += t.cycles
		nd.res.Instructions += t.ins
		f.res.Completed += t.completed
		f.res.Flagged += t.flagged
		f.res.FlaggedInjected += t.flaggedInjected
		f.res.ScoreSum += t.scoreSum
		f.cCompleted.Add(t.completed)
		f.cFlagged.Add(t.flagged)
		*t = pkgTally{}
	}
	f.res.Ticks++
}

// merge is the fleet's gossip step, collapsed to one deterministic serial
// operation: mergeBanks reclusters the nodes' banks, in node order, to
// BankK medoids, installs the merged bank on every node and recalibrates
// each node's threshold against it. Then the per-cohort high-usage
// thresholds refresh from the windows' cohort medians.
func (f *Fleet) merge() {
	mergeBanks(f.ws, f.bms, f.cfg.Stream.Seed+int64(f.res.Merges))
	// Per-cohort admission thresholds: the median request cost of each
	// cohort across every node's current window, in node order. Cohorts
	// with no windowed completions fall back to the merged bank's median.
	for ci := range f.cohortCPUs {
		f.cohortCPUs[ci] = f.cohortCPUs[ci][:0]
	}
	for _, n := range f.nodes {
		for i := 0; i < n.bm.winLen; i++ {
			rec := n.bm.at(i)
			f.cohortCPUs[rec.cohort] = append(f.cohortCPUs[rec.cohort], rec.cpuNs)
		}
	}
	for ci := range f.fleetThresholds {
		if cpus := f.cohortCPUs[ci]; len(cpus) > 0 {
			f.fleetThresholds[ci] = medianInPlace(cpus)
		} else {
			f.fleetThresholds[ci] = f.nodes[0].bm.bank.ThresholdNs
		}
	}
	f.res.Merges++
	f.cMerges.Add(1)
}

// Queued returns the total in-flight requests across the fleet.
func (f *Fleet) Queued() int {
	var q int
	for _, n := range f.nodes {
		for i := range n.cores {
			q += n.cores[i].n
		}
	}
	return q
}

// Result snapshots the run's deterministic outcome.
func (f *Fleet) Result() FleetResult {
	r := f.res
	r.VirtualNs = f.nowNs
	r.Queued = f.Queued()
	r.Nodes = make([]NodeResult, len(f.nodes))
	for i, n := range f.nodes {
		nr := n.res
		nr.Cores = len(n.cores)
		if nr.Instructions > 0 {
			nr.CPI = nr.Cycles / nr.Instructions
		}
		nr.P99Ns = n.hist.Quantile(0.99)
		nr.Compactions = n.bm.compactions
		nr.Recalibrations = n.bm.recalibrations
		nr.BankEntries = len(n.bm.bank.Entries)
		nr.Threshold = n.bm.threshold
		r.Nodes[i] = nr
		r.Cycles += nr.Cycles
		r.Instructions += nr.Instructions
	}
	if r.Instructions > 0 {
		r.CPI = r.Cycles / r.Instructions
	}
	r.P99Ns = f.fleetHist.Quantile(0.99)
	r.ActiveNodes = f.active
	return r
}

// Close is a no-op: the fleet holds no goroutines. It remains so callers
// that treat the fleet and the engine alike keep compiling.
func (f *Fleet) Close() {}

// NodeResult is one node's deterministic outcome.
type NodeResult struct {
	Node     int
	Topology string
	Cores    int

	Completed       uint64
	Shed            uint64
	Degraded        uint64
	Flagged         uint64
	FlaggedInjected uint64
	ScoreSum        float64
	Compactions     uint64
	Recalibrations  uint64

	Cycles       float64
	Instructions float64
	CPI          float64
	P99Ns        float64

	MaxQueueDepth int
	BankEntries   int
	Threshold     float64
}

// FleetResult is the whole fleet's deterministic outcome.
type FleetResult struct {
	Policy string

	Arrivals        uint64
	Shed            uint64
	Degraded        uint64
	Injected        uint64
	Completed       uint64
	Flagged         uint64
	FlaggedInjected uint64
	ScoreSum        float64

	Cycles       float64
	Instructions float64
	CPI          float64
	P99Ns        float64

	CompactionRounds uint64
	Merges           uint64
	Ticks            uint64
	VirtualNs        int64
	Queued           int

	// ScaleUps and ScaleDowns count scale-out policy actions; ActiveNodes
	// is the final active-set size (always the full fleet for the other
	// placement policies).
	ScaleUps    uint64
	ScaleDowns  uint64
	ActiveNodes int

	Nodes []NodeResult
}

// String renders the fleet summary.
func (r FleetResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet run (%s): %d ticks, %.3fs virtual\n", r.Policy, r.Ticks, float64(r.VirtualNs)/1e9)
	fmt.Fprintf(&b, "  arrivals %d (shed %d, degraded %d), completed %d, in flight %d\n", r.Arrivals, r.Shed, r.Degraded, r.Completed, r.Queued)
	fmt.Fprintf(&b, "  fleet CPI %.4f, p99 %.3fms\n", r.CPI, r.P99Ns/1e6)
	fmt.Fprintf(&b, "  anomalies: injected %d, flagged %d (hits %d)\n", r.Injected, r.Flagged, r.FlaggedInjected)
	fmt.Fprintf(&b, "  banks: %d compaction rounds, %d merges\n", r.CompactionRounds, r.Merges)
	if r.Policy == string(FleetScaleOut) {
		fmt.Fprintf(&b, "  scale: %d ups, %d downs, %d/%d nodes active\n", r.ScaleUps, r.ScaleDowns, r.ActiveNodes, len(r.Nodes))
	}
	for _, n := range r.Nodes {
		fmt.Fprintf(&b, "  node%d %-28s %2d cores: completed %8d  CPI %.4f  p99 %8.3fms  depth %3d  shed %d  degraded %d  flagged %d\n",
			n.Node, n.Topology, n.Cores, n.Completed, n.CPI, n.P99Ns/1e6, n.MaxQueueDepth, n.Shed, n.Degraded, n.Flagged)
	}
	return b.String()
}
