// Package distributed implements the paper's second future-work direction
// (Section 7): "the online management of request behavior variations
// across a distributed server architecture can expose both local and
// inter-machine variations … [and] may also guide additional distributed
// system resource management such as component placement."
//
// A cluster is a set of simulated machines sharing one virtual clock, each
// with its own kernel and tracker. A multi-tier request is split into
// per-tier segments; each segment executes on the node hosting its tier,
// and segments are stitched — across simulated network hops — into one
// distributed trace that separates per-machine execution, exactly the
// request context propagation the paper's single-machine prototype could
// not follow past one kernel.
//
// The driver is robust to an imperfect interconnect: hops carry per-hop
// timeouts with capped exponential backoff retries, and a segment that
// overstays its latency budget can be hedged — re-dispatched to an
// alternate node, first completion wins. Both mechanisms, and the fault
// injector (package fault) that exercises them, run entirely on the shared
// virtual clock from labeled RNG streams, so a cluster run is
// bit-reproducible for a given Config.Seed.
package distributed

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// NetworkConfig models the interconnect between nodes.
type NetworkConfig struct {
	// HopLatency is the mean one-way latency of a tier hop between
	// different nodes (exponentially distributed). Hops between tiers
	// placed on the same node are free (they stay in-kernel).
	HopLatency sim.Time
	// DropRTO is the lower-layer retransmission penalty a dropped hop pays
	// when the driver's own retries are exhausted or disabled — the
	// kernel-TCP timeout cliff that application-level retry is meant to
	// beat. Defaults to 25 × HopLatency.
	DropRTO sim.Time
}

// RetryConfig controls the driver's robustness mechanisms.
type RetryConfig struct {
	// Enabled turns on per-hop timeouts with retries. Off, a dropped hop
	// pays the full DropRTO retransmission penalty.
	Enabled bool
	// MaxRetries caps resend attempts per hop (default 3).
	MaxRetries int
	// HopTimeout is the per-attempt delivery timeout (default
	// 4 × HopLatency).
	HopTimeout sim.Time
	// Backoff is the base retry backoff, doubled per attempt (default
	// HopLatency) and capped at BackoffCap (default 8 × Backoff).
	Backoff, BackoffCap sim.Time
	// Hedge re-dispatches a segment that has run longer than HedgeAfter to
	// an alternate node; the first completion wins. Requires ≥ 2 nodes and
	// HedgeAfter > 0.
	Hedge      bool
	HedgeAfter sim.Time
}

// Resolved returns the config with defaults filled in for the given
// network — the values a cluster built from it actually runs with, which
// is what a localizer needs to cost out observed retry overhead.
func (r RetryConfig) Resolved(net NetworkConfig) RetryConfig {
	return r.withDefaults(net)
}

func (r RetryConfig) withDefaults(net NetworkConfig) RetryConfig {
	if !r.Enabled {
		return r
	}
	if r.MaxRetries <= 0 {
		r.MaxRetries = 3
	}
	if r.HopTimeout <= 0 {
		r.HopTimeout = 4 * net.HopLatency
		if r.HopTimeout <= 0 {
			r.HopTimeout = sim.Millisecond
		}
	}
	if r.Backoff <= 0 {
		r.Backoff = net.HopLatency
		if r.Backoff <= 0 {
			r.Backoff = 100 * sim.Microsecond
		}
	}
	if r.BackoffCap <= 0 {
		r.BackoffCap = 8 * r.Backoff
	}
	return r
}

// Node is one machine of the cluster: a kernel with its own cores and an
// attached tracker.
type Node struct {
	Name    string
	Kernel  *kernel.Kernel
	Tracker *sampling.Tracker

	idx int
	// expects maps each dispatched sub-request (a distinct pointer per
	// dispatch, so hedged duplicates of the same request ID stay distinct)
	// to the pending distributed request it belongs to.
	expects map[*workload.Request]expectation
	// lastDone stashes the trace the tracker just completed; the kernel's
	// OnRequestDone callback — which fires immediately after within the
	// same completion and carries the *workload.Request key — consumes it.
	lastDone *trace.Request
}

// clusterObs holds the cluster's resolved observability handles (all nil
// when no collector is attached; see package obs).
type clusterObs struct {
	hops     *obs.SpanSeries // delivered hop latency (including retries)
	retries  *obs.Counter    // hop resend attempts
	hedges   *obs.Counter    // hedged segment dispatches
	timeouts *obs.Counter    // hop delivery timeouts
	drops    *obs.Counter    // hop messages lost to fault windows
	faults   *obs.Counter    // fault impacts applied to requests
}

// Cluster is a set of nodes on one simulation clock, plus the placement of
// application tiers onto nodes.
type Cluster struct {
	eng   *sim.Engine
	net   NetworkConfig
	retry RetryConfig
	nodes []*Node
	// placement maps tier → node index.
	placement []int
	// netRNG drives all network latency draws: a labeled fork of
	// Config.Seed, independent of workload content draws.
	netRNG *sim.RNG
	faults *fault.Schedule
	cobs   clusterObs

	done func(*Trace)
}

// Config builds a cluster.
type Config struct {
	// Nodes is the number of machines (each gets the default kernel
	// config's cores).
	Nodes int
	// Sampling configures every node's tracker.
	Sampling sampling.Config
	// Placement maps each application tier to a node index. Tiers beyond
	// the slice default to node 0.
	Placement []int
	// Network models the interconnect.
	Network NetworkConfig
	// Retry configures hop timeouts/retries and segment hedging.
	Retry RetryConfig
	// Seed drives network latency draws, through a labeled RNG fork, so
	// the interconnect's randomness is independent of each request's
	// workload content stream.
	Seed int64
	// Topology, when non-nil, sets every node's machine layout (it
	// overrides the default machine topology).
	Topology *machine.Topology
	// Topologies, when non-empty, gives each node its own layout — a
	// heterogeneous fleet. Its length must equal Nodes; it overrides
	// Topology.
	Topologies []machine.Topology
}

// Validate reports configuration errors, naming the offending field.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("distributed: Config.Nodes must be positive, got %d", c.Nodes)
	}
	for i, p := range c.Placement {
		if p < 0 || p >= c.Nodes {
			return fmt.Errorf("distributed: Config.Placement[%d] = %d outside [0,%d)", i, p, c.Nodes)
		}
	}
	if c.Topology != nil {
		if err := c.Topology.Validate(); err != nil {
			return fmt.Errorf("distributed: Config.Topology: %w", err)
		}
	}
	if len(c.Topologies) > 0 && len(c.Topologies) != c.Nodes {
		return fmt.Errorf("distributed: Config.Topologies has %d entries for %d nodes",
			len(c.Topologies), c.Nodes)
	}
	for i, t := range c.Topologies {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("distributed: Config.Topologies[%d]: %w", i, err)
		}
	}
	return nil
}

// topologyFor resolves node i's machine topology override (nil = keep the
// kernel config's layout).
func (c Config) topologyFor(i int) *machine.Topology {
	if len(c.Topologies) > 0 {
		return &c.Topologies[i]
	}
	return c.Topology
}

// NewCluster builds the cluster on a fresh simulation engine.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net := cfg.Network
	if net.DropRTO <= 0 {
		net.DropRTO = 25 * net.HopLatency
		if net.DropRTO <= 0 {
			net.DropRTO = sim.Millisecond
		}
	}
	eng := sim.NewEngine()
	c := &Cluster{
		eng:       eng,
		net:       net,
		retry:     cfg.Retry.withDefaults(net),
		placement: append([]int(nil), cfg.Placement...),
		netRNG:    sim.ForkLabeled(cfg.Seed, "distributed-net"),
	}
	for i := 0; i < cfg.Nodes; i++ {
		kcfg := kernel.DefaultConfig()
		if t := cfg.topologyFor(i); t != nil {
			kcfg.Machine.Topology = *t
		}
		k := kernel.New(eng, kcfg)
		tk := sampling.NewTracker(k, cfg.Sampling)
		// Every node hosts a single local "tier 0" worker pool; segments
		// arriving at a node always run as that node's tier 0 (which is
		// also what lets a hedged segment run on any alternate node).
		k.AddWorkers(0, kcfg.Machine.NumCores()*2)
		node := &Node{Name: fmt.Sprintf("node%d", i), Kernel: k, Tracker: tk, idx: i}
		c.nodes = append(c.nodes, node)
		tk.OnComplete(func(tr *trace.Request) { node.lastDone = tr })
		k.OnRequestDone(c.segmentDone(node))
	}
	return c, nil
}

// Engine returns the shared simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Nodes returns the cluster's machines.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// NodeFor returns the node index hosting a tier.
func (c *Cluster) NodeFor(tier int) int {
	if tier < len(c.placement) {
		return c.placement[tier]
	}
	return 0
}

// SetObserver attaches the observability collector, resolving the
// cluster's hop span and robustness counters. A nil collector leaves the
// cluster uninstrumented. Must be called before the simulation starts.
func (c *Cluster) SetObserver(col *obs.Collector) {
	if col == nil {
		return
	}
	c.cobs = clusterObs{
		hops:     col.Span("hop"),
		retries:  col.Counter("net.retries"),
		hedges:   col.Counter("net.hedges"),
		timeouts: col.Counter("net.timeouts"),
		drops:    col.Counter("net.drops"),
		faults:   col.Counter("fault.impacts"),
	}
	for _, n := range c.nodes {
		n.Tracker.SetObserver(col)
	}
}

// SetFaults installs a fault schedule: hop sends consult it for latency
// spikes and drops, segment dispatches for pollution bursts, and node
// slowdown windows are armed as virtual-clock events that scale the
// target kernel's CPU frequency at each window edge. Call once, before
// the simulation starts; the schedule records the ground-truth impacts.
func (c *Cluster) SetFaults(s *fault.Schedule) {
	c.faults = s
	for _, f := range s.Faults() {
		if f.Kind != fault.NodeSlowdown || f.Node < 0 || f.Node >= len(c.nodes) {
			continue
		}
		f := f
		node := c.nodes[f.Node]
		apply := func() {
			node.Kernel.SetFrequencyScale(c.faults.FreqScale(f.Node, c.eng.Now()))
		}
		c.eng.At(f.Start, apply)
		c.eng.At(f.End, apply)
	}
}

// Segment is one per-node stretch of a distributed request.
type Segment struct {
	Node  string
	Tier  int
	Trace *trace.Request
	// NetworkDelay is the hop latency paid before this segment started,
	// including retry backoffs and retransmission penalties.
	NetworkDelay sim.Time
	// Hedged marks a segment completed by a hedged duplicate rather than
	// the primary dispatch.
	Hedged bool
}

// Trace is a stitched distributed request execution.
type Trace struct {
	ID       uint64
	App      string
	Type     string
	Segments []Segment
	// Start and End are wall-clock request boundaries across the cluster.
	Start, End sim.Time
	// Retries, Hedges, and Timeouts count the robustness events this
	// request needed.
	Retries, Hedges, Timeouts int
	// Path is the request's causal path tree: every hop and execution
	// segment in virtual-event order, with node/tier attribution and the
	// robustness events each step observed. Built without RNG draws, so it
	// never perturbs the run it describes.
	Path *obs.CausalPath
}

// CPUTime sums CPU execution across all machines.
func (t *Trace) CPUTime() sim.Time {
	var total sim.Time
	for _, s := range t.Segments {
		total += s.Trace.CPUTime()
	}
	return total
}

// NetworkTime sums the inter-machine hop latencies.
func (t *Trace) NetworkTime() sim.Time {
	var total sim.Time
	for _, s := range t.Segments {
		total += s.NetworkDelay
	}
	return total
}

// Latency is the end-to-end response time.
func (t *Trace) Latency() sim.Time { return t.End - t.Start }

// PerNodeCPU returns CPU time by node name — the inter-machine variation
// view.
func (t *Trace) PerNodeCPU() map[string]sim.Time {
	out := map[string]sim.Time{}
	for _, s := range t.Segments {
		out[s.Node] += s.Trace.CPUTime()
	}
	return out
}

// pending tracks one distributed request mid-flight.
type pending struct {
	cluster   *Cluster
	trace     *Trace
	segments  []segmentPlan
	next      int
	typeIndex int
	rng       *sim.RNG
	// hedgedSeg marks the one segment index already hedged (-1: none);
	// each segment is hedged at most once.
	hedgedSeg int
}

type segmentPlan struct {
	tier   int
	phases []workload.Phase
}

// splitSegments groups consecutive phases by tier.
func splitSegments(req *workload.Request) []segmentPlan {
	var out []segmentPlan
	for _, ph := range req.Phases {
		n := len(out)
		if n == 0 || out[n-1].tier != ph.Tier {
			out = append(out, segmentPlan{tier: ph.Tier})
			n++
		}
		local := ph
		local.Tier = 0 // segments run as the hosting node's local tier
		out[n-1].phases = append(out[n-1].phases, local)
	}
	return out
}

// Submit launches a distributed request. The done callback fires when the
// final segment completes.
func (c *Cluster) Submit(req *workload.Request) {
	p := &pending{
		cluster: c,
		trace: &Trace{
			ID:    req.ID,
			App:   req.App,
			Type:  req.Type,
			Start: c.eng.Now(),
			Path:  obs.NewCausalPath(req.ID, req.Type, c.eng.Now()),
		},
		segments:  splitSegments(req),
		typeIndex: req.TypeIndex,
		rng:       req.RNG,
		hedgedSeg: -1,
	}
	// The entry segment arrives with the request itself — no cluster hop.
	c.dispatch(p, 0, c.NodeFor(p.segments[0].tier), 0, false)
}

// OnDone registers the completion callback for distributed traces.
func (c *Cluster) OnDone(fn func(*Trace)) { c.done = fn }

// expectation links a dispatched sub-request back to its distributed
// request: the segment index detects stale hedge losers, delay carries the
// hop latency to attribute, hedge marks the duplicate dispatch.
type expectation struct {
	p     *pending
	seg   int
	delay sim.Time
	hedge bool
}

// hopState is one in-flight network message carrying a segment to its
// node, across however many attempts its delivery needs.
type hopState struct {
	p         *pending
	seg       int
	to        int
	hedge     bool
	attempt   int
	start     sim.Time
	delivered bool
	timeout   *sim.Event
	// pnode is the hop's step in the request's causal path tree.
	pnode *obs.CausalNode
}

// sendHop launches the network delivery of segment seg to node to.
func (c *Cluster) sendHop(p *pending, seg, to int, hedge bool) {
	h := &hopState{p: p, seg: seg, to: to, hedge: hedge, start: c.eng.Now()}
	h.pnode = p.trace.Path.Root.Add(&obs.CausalNode{
		Kind:   obs.CausalHop,
		Node:   to,
		Tier:   p.segments[seg].tier,
		Start:  h.start,
		Hedged: hedge,
	})
	c.attemptHop(h)
}

// attemptHop makes one delivery attempt: draw the hop latency from the
// cluster's network stream, apply any active latency-spike window, decide
// loss from the fault schedule's drop stream, and schedule delivery — or,
// when the message is lost and retries remain, leave it to the pending
// timeout to resend. A lost message with no retry budget still delivers,
// after the DropRTO retransmission penalty, so every hop terminates in at
// most MaxRetries+1 attempts.
func (c *Cluster) attemptHop(h *hopState) {
	now := c.eng.Now()
	delay := sim.Time(c.netRNG.Exp(float64(c.net.HopLatency)))
	if delay < sim.Microsecond {
		delay = sim.Microsecond
	}
	if f := c.faults.HopFactor(h.to, now); f > 1 {
		delay = sim.Time(float64(delay) * f)
		c.faults.Record(h.p.trace.ID, fault.HopDelay, h.to, -1, now)
		c.cobs.faults.Add(1)
	}
	dropped := c.faults.DropHop(h.to, now)
	canRetry := c.retry.Enabled && h.attempt < c.retry.MaxRetries
	if dropped {
		c.faults.Record(h.p.trace.ID, fault.HopDrop, h.to, -1, now)
		c.cobs.drops.Add(1)
		c.cobs.faults.Add(1)
		if !canRetry {
			// Lower-layer retransmission eventually delivers, at the RTO
			// cliff application-level retries are meant to avoid.
			c.eng.After(delay+c.net.DropRTO, func() { c.deliverHop(h) })
		}
	} else {
		c.eng.After(delay, func() { c.deliverHop(h) })
	}
	if canRetry {
		h.timeout = c.eng.After(c.retry.HopTimeout, func() { c.hopTimeout(h) })
	}
}

// deliverHop completes a hop's first successful delivery and dispatches
// the segment; late duplicates (a slow primary racing a retry) are
// dropped here.
func (c *Cluster) deliverHop(h *hopState) {
	if h.delivered {
		return
	}
	h.delivered = true
	if h.timeout != nil {
		c.eng.Cancel(h.timeout)
		h.timeout = nil
	}
	netDelay := c.eng.Now() - h.start
	h.pnode.Dur = netDelay
	c.cobs.hops.Observe(netDelay)
	c.dispatch(h.p, h.seg, h.to, netDelay, h.hedge)
}

// hopTimeout fires when an attempt's delivery window lapses: resend after
// a capped exponential backoff.
func (c *Cluster) hopTimeout(h *hopState) {
	if h.delivered {
		return
	}
	h.timeout = nil
	c.cobs.timeouts.Add(1)
	h.p.trace.Timeouts++
	h.pnode.Timeouts++
	h.pnode.Retries++
	backoff := c.retry.Backoff << uint(h.attempt)
	if backoff > c.retry.BackoffCap {
		backoff = c.retry.BackoffCap
	}
	h.attempt++
	c.cobs.retries.Add(1)
	h.p.trace.Retries++
	c.eng.After(backoff, func() { c.attemptHop(h) })
}

// dispatch submits segment seg of p to a node, applying any active
// pollution-burst window to the segment's activity, and arms the hedge
// timer for the primary dispatch.
func (c *Cluster) dispatch(p *pending, seg, nodeIdx int, netDelay sim.Time, hedge bool) {
	if p.next != seg {
		return // the segment already completed via the other copy
	}
	c.inflightFaultImpacts(p, seg, nodeIdx)
	node := c.nodes[nodeIdx]
	phases := p.segments[seg].phases
	now := c.eng.Now()
	if f := c.faults.Pollution(p.segments[seg].tier, now); f > 1 {
		phases = pollutedPhases(phases, f)
		c.faults.Record(p.trace.ID, fault.PollutionBurst, nodeIdx, p.segments[seg].tier, now)
		c.cobs.faults.Add(1)
	}
	rng := p.rng
	if hedge {
		// The duplicate gets its own stream so it cannot perturb the
		// primary's workload draws.
		rng = c.netRNG.Fork()
	}
	sub := &workload.Request{
		ID:        p.trace.ID,
		App:       p.trace.App,
		Type:      p.trace.Type,
		TypeIndex: p.typeIndex,
		Phases:    phases,
		RNG:       rng,
	}
	c.expect(node, sub, p, seg, netDelay, hedge)
	node.Kernel.Submit(sub)
	if !hedge && c.retry.Hedge && c.retry.HedgeAfter > 0 && len(c.nodes) > 1 {
		c.eng.After(c.retry.HedgeAfter, func() { c.maybeHedge(p, seg, nodeIdx) })
	}
}

// maybeHedge re-dispatches a segment still running past its latency budget
// to the next node over; the duplicate pays its own network hop and races
// the primary — first completion wins.
func (c *Cluster) maybeHedge(p *pending, seg, primary int) {
	if p.next != seg || p.hedgedSeg == seg {
		return
	}
	p.hedgedSeg = seg
	alt := (primary + 1) % len(c.nodes)
	c.cobs.hedges.Add(1)
	p.trace.Hedges++
	c.sendHop(p, seg, alt, true)
}

// inflightFaultImpacts records ground truth for windows that stretch a
// segment's execution from below: a dispatch onto a slowed node.
func (c *Cluster) inflightFaultImpacts(p *pending, seg, nodeIdx int) {
	now := c.eng.Now()
	if c.faults.FreqScale(nodeIdx, now) < 1 {
		c.faults.Record(p.trace.ID, fault.NodeSlowdown, nodeIdx, p.segments[seg].tier, now)
		c.cobs.faults.Add(1)
	}
}

// pollutedPhases returns a copy of the phases with an active pollution
// burst folded into their cache behavior: the footprint and miss ratio
// inflate and the base CPI drifts up, while the reference rate per
// instruction stays put — the paper's signature of a cache-contention
// anomaly (similar L2-reference patterns, divergent CPI).
func pollutedPhases(phases []workload.Phase, f float64) []workload.Phase {
	out := append([]workload.Phase(nil), phases...)
	for i := range out {
		a := out[i].Activity
		a.WorkingSetBytes *= f
		a.SoloMissRatio *= f
		if a.SoloMissRatio > 0.9 {
			a.SoloMissRatio = 0.9
		}
		a.BaseCPI *= 1 + 0.5*(f-1)
		out[i].Activity = a
	}
	return out
}

func (c *Cluster) expect(node *Node, sub *workload.Request, p *pending, seg int, delay sim.Time, hedge bool) {
	if node.expects == nil {
		node.expects = map[*workload.Request]expectation{}
	}
	node.expects[sub] = expectation{p: p, seg: seg, delay: delay, hedge: hedge}
}

// segmentDone stitches a completed node-local trace into its distributed
// request and launches the next segment (over a network hop if the next
// tier lives elsewhere). Completions of hedge losers — whose segment index
// has already been passed — are discarded.
func (c *Cluster) segmentDone(node *Node) func(run *kernel.RequestRun) {
	return func(run *kernel.RequestRun) {
		tr := node.lastDone
		node.lastDone = nil
		exp, ok := node.expects[run.Req]
		if !ok {
			return
		}
		delete(node.expects, run.Req)
		p := exp.p
		if exp.seg != p.next || tr == nil {
			return // stale duplicate: the other copy finished first
		}
		seg := p.segments[p.next]
		p.trace.Segments = append(p.trace.Segments, Segment{
			Node:         node.Name,
			Tier:         seg.tier,
			Trace:        tr,
			NetworkDelay: exp.delay,
			Hedged:       exp.hedge,
		})
		totals := tr.Totals()
		p.trace.Path.Root.Add(&obs.CausalNode{
			Kind:         obs.CausalExec,
			Node:         node.idx,
			Tier:         seg.tier,
			Start:        tr.Start,
			Dur:          tr.End - tr.Start,
			Hedged:       exp.hedge,
			CPUTime:      tr.CPUTime(),
			Instructions: totals.Instructions,
			Cycles:       totals.Cycles,
		})
		p.next++
		if p.next >= len(p.segments) {
			p.trace.End = c.eng.Now()
			p.trace.Path.Root.Dur = p.trace.End - p.trace.Start
			if c.done != nil {
				c.done(p.trace)
			}
			return
		}
		// Network hop when the next tier lives on a different node than
		// the one that actually ran this segment (a hedge winner may sit
		// off the placement path).
		to := c.NodeFor(p.segments[p.next].tier)
		if to != node.idx {
			c.sendHop(p, p.next, to, false)
			return
		}
		c.dispatch(p, p.next, to, 0, false)
	}
}
