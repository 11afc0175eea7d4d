// Package fault is the deterministic fault injector for the distributed
// cluster: it perturbs runs with node slowdown windows (CPU frequency
// scaling on a node's kernel), hop-latency spikes and message drops on the
// interconnect, and per-tier pollution bursts that inflate a segment's
// cache footprint. Every fault is drawn from a labeled sim.RNG fork of the
// schedule seed — the schedule is a pure function of its Config, and the
// online drop decisions consume their own labeled stream in virtual-event
// order — so runs are bit-reproducible, and every fault actually applied to
// a request is recorded with its request ID, node, tier, and time as ground
// truth for anomaly-detection evaluation (the labeled perturbations the
// paper's Section 6 evaluation lacks).
package fault

import (
	"fmt"

	"repro/internal/sim"
)

// Kind classifies a fault.
type Kind int

const (
	// NodeSlowdown scales a node's CPU clock down for a window (DVFS):
	// same work, stretched wall time.
	NodeSlowdown Kind = iota
	// HopDelay multiplies interconnect hop latencies into a node during a
	// window (congestion, a flapping link).
	HopDelay
	// HopDrop loses hop messages into a node with some probability during
	// a window; recovery is either the driver's retry path or the
	// lower-layer retransmission penalty.
	HopDrop
	// PollutionBurst inflates the cache footprint and miss ratio of
	// segments entering a tier during a window (a co-located batch job, a
	// cold cache) — the CPI-visible behavioral anomaly the Section 6
	// detector should find.
	PollutionBurst
)

func (k Kind) String() string {
	switch k {
	case NodeSlowdown:
		return "node-slowdown"
	case HopDelay:
		return "hop-delay"
	case HopDrop:
		return "hop-drop"
	case PollutionBurst:
		return "pollution-burst"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one scheduled perturbation with its ground-truth window.
type Fault struct {
	Kind Kind
	// Node is the target machine: the slowed node, or the destination node
	// of affected hops (-1 matches any node).
	Node int
	// Tier is the target tier of a pollution burst (-1 matches any tier).
	Tier int
	// Start and End bound the active window: [Start, End).
	Start, End sim.Time
	// Factor is the kind's intensity: the frequency scale (< 1) of a
	// slowdown, the latency multiplier (> 1) of a hop spike, or the
	// footprint inflation (> 1) of a pollution burst.
	Factor float64
	// Prob is a hop-drop window's per-message loss probability.
	Prob float64
}

func (f Fault) active(t sim.Time) bool { return t >= f.Start && t < f.End }

func (f Fault) String() string {
	return fmt.Sprintf("%s node=%d tier=%d [%v,%v) factor=%.2f prob=%.2f",
		f.Kind, f.Node, f.Tier, f.Start, f.End, f.Factor, f.Prob)
}

// Config generates a schedule. The zero values of the intensity knobs pick
// the defaults noted on each field.
type Config struct {
	// Seed drives the schedule draws and the online drop stream, through
	// labeled forks so the two cannot disturb each other.
	Seed int64
	// Horizon is the window placement range: all windows fall in
	// [0, Horizon).
	Horizon sim.Time
	// Nodes and Tiers bound the random targets.
	Nodes, Tiers int
	// Slowdowns, HopSpikes, Drops, and Bursts count the windows generated
	// per kind.
	Slowdowns, HopSpikes, Drops, Bursts int
	// SlowdownFactor is the frequency scale inside slowdown windows
	// (default 0.4 — a thermally throttled node).
	SlowdownFactor float64
	// HopDelayFactor multiplies hop latencies inside spike windows
	// (default 8).
	HopDelayFactor float64
	// DropProb is the per-message loss probability inside drop windows
	// (default 0.6).
	DropProb float64
	// BurstFactor inflates working set and miss ratio inside pollution
	// bursts (default 3).
	BurstFactor float64
	// MinWindow and MaxWindow bound window lengths (defaults Horizon/20
	// and Horizon/6).
	MinWindow, MaxWindow sim.Time
}

func (c Config) withDefaults() Config {
	if c.SlowdownFactor <= 0 || c.SlowdownFactor >= 1 {
		c.SlowdownFactor = 0.4
	}
	if c.HopDelayFactor <= 1 {
		c.HopDelayFactor = 8
	}
	if c.DropProb <= 0 || c.DropProb > 1 {
		c.DropProb = 0.6
	}
	if c.BurstFactor <= 1 {
		c.BurstFactor = 3
	}
	if c.MinWindow <= 0 {
		c.MinWindow = c.Horizon / 20
	}
	if c.MaxWindow <= c.MinWindow {
		c.MaxWindow = c.Horizon / 6
	}
	if c.MaxWindow <= c.MinWindow {
		c.MaxWindow = c.MinWindow + 1
	}
	return c
}

// Impact is one fault actually applied to a request — the ground-truth
// label anomaly evaluation scores against.
type Impact struct {
	RequestID uint64
	Kind      Kind
	Node      int
	Tier      int
	At        sim.Time
}

// Schedule is a generated fault plan plus the run's recorded impacts. A
// Schedule belongs to one run: build a fresh one (same Config → identical
// windows) per run so recorded impacts stay per-run ground truth. A nil
// *Schedule is the no-faults state; every query method treats it as clean.
type Schedule struct {
	faults  []Fault
	drops   *sim.RNG
	impacts []Impact
}

// NewSchedule draws a schedule from the configuration. It errors on a
// non-positive horizon or node/tier bounds when the respective kinds are
// requested.
func NewSchedule(cfg Config) (*Schedule, error) {
	if cfg.Horizon <= 0 && cfg.Slowdowns+cfg.HopSpikes+cfg.Drops+cfg.Bursts > 0 {
		return nil, fmt.Errorf("fault: Horizon must be positive, got %v", cfg.Horizon)
	}
	if cfg.Nodes <= 0 && cfg.Slowdowns+cfg.HopSpikes+cfg.Drops > 0 {
		return nil, fmt.Errorf("fault: Nodes must be positive for node-targeted faults")
	}
	if cfg.Tiers <= 0 && cfg.Bursts > 0 {
		return nil, fmt.Errorf("fault: Tiers must be positive for pollution bursts")
	}
	cfg = cfg.withDefaults()
	rng := sim.ForkLabeled(cfg.Seed, "fault-schedule")
	s := &Schedule{drops: sim.ForkLabeled(cfg.Seed, "fault-drops")}
	window := func() (start, end sim.Time) {
		length := sim.Time(rng.Int63n(int64(cfg.MaxWindow-cfg.MinWindow))) + cfg.MinWindow
		maxStart := int64(cfg.Horizon - length)
		if maxStart <= 0 {
			return 0, length
		}
		start = sim.Time(rng.Int63n(maxStart))
		return start, start + length
	}
	for i := 0; i < cfg.Slowdowns; i++ {
		start, end := window()
		s.faults = append(s.faults, Fault{Kind: NodeSlowdown, Node: rng.Intn(cfg.Nodes),
			Tier: -1, Start: start, End: end, Factor: cfg.SlowdownFactor})
	}
	for i := 0; i < cfg.HopSpikes; i++ {
		start, end := window()
		s.faults = append(s.faults, Fault{Kind: HopDelay, Node: rng.Intn(cfg.Nodes),
			Tier: -1, Start: start, End: end, Factor: cfg.HopDelayFactor})
	}
	for i := 0; i < cfg.Drops; i++ {
		start, end := window()
		s.faults = append(s.faults, Fault{Kind: HopDrop, Node: rng.Intn(cfg.Nodes),
			Tier: -1, Start: start, End: end, Prob: cfg.DropProb})
	}
	for i := 0; i < cfg.Bursts; i++ {
		start, end := window()
		s.faults = append(s.faults, Fault{Kind: PollutionBurst, Node: -1,
			Tier: rng.Intn(cfg.Tiers), Start: start, End: end, Factor: cfg.BurstFactor})
	}
	return s, nil
}

// FromFaults builds a schedule from an explicit fault list (tests, replay,
// hand-crafted scenarios). The seed drives only the online drop stream.
func FromFaults(seed int64, faults []Fault) *Schedule {
	return &Schedule{
		faults: append([]Fault(nil), faults...),
		drops:  sim.ForkLabeled(seed, "fault-drops"),
	}
}

// Faults returns the scheduled faults. The slice must not be modified.
func (s *Schedule) Faults() []Fault {
	if s == nil {
		return nil
	}
	return s.faults
}

// FreqScale returns the node's effective frequency scale at time t: the
// minimum over active slowdown windows, 1 when none are active.
func (s *Schedule) FreqScale(node int, t sim.Time) float64 {
	scale := 1.0
	for _, f := range s.Faults() {
		if f.Kind == NodeSlowdown && f.Node == node && f.active(t) && f.Factor < scale {
			scale = f.Factor
		}
	}
	return scale
}

// HopFactor returns the latency multiplier for a hop delivered into node
// `to` at time t: the maximum over active spike windows, 1 when clean.
func (s *Schedule) HopFactor(to int, t sim.Time) float64 {
	factor := 1.0
	for _, f := range s.Faults() {
		if f.Kind == HopDelay && (f.Node == to || f.Node < 0) && f.active(t) && f.Factor > factor {
			factor = f.Factor
		}
	}
	return factor
}

// DropHop decides whether a hop message into node `to` at time t is lost.
// The loss draw consumes the schedule's dedicated drop stream only while a
// drop window is active, so clean stretches of a run leave the stream
// untouched and the decision sequence is reproducible in event order.
func (s *Schedule) DropHop(to int, t sim.Time) bool {
	if s == nil {
		return false
	}
	prob := 0.0
	for _, f := range s.faults {
		if f.Kind == HopDrop && (f.Node == to || f.Node < 0) && f.active(t) && f.Prob > prob {
			prob = f.Prob
		}
	}
	if prob <= 0 {
		return false
	}
	return s.drops.Bool(prob)
}

// Pollution returns the footprint inflation for a segment entering a tier
// at time t: the maximum over active burst windows, 1 when clean.
func (s *Schedule) Pollution(tier int, t sim.Time) float64 {
	factor := 1.0
	for _, f := range s.Faults() {
		if f.Kind == PollutionBurst && (f.Tier == tier || f.Tier < 0) && f.active(t) && f.Factor > factor {
			factor = f.Factor
		}
	}
	return factor
}

// Record notes one fault applied to a request — the injector calls this at
// each application point, building the run's ground truth.
func (s *Schedule) Record(id uint64, k Kind, node, tier int, at sim.Time) {
	if s == nil {
		return
	}
	s.impacts = append(s.impacts, Impact{RequestID: id, Kind: k, Node: node, Tier: tier, At: at})
}

// Impacts returns the recorded per-request ground truth, in application
// order. The slice must not be modified.
func (s *Schedule) Impacts() []Impact {
	if s == nil {
		return nil
	}
	return s.impacts
}

// ImpactedIDs returns the set of request IDs hit by any of the given kinds
// (all kinds when none are given).
func (s *Schedule) ImpactedIDs(kinds ...Kind) map[uint64]bool {
	want := map[Kind]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	out := map[uint64]bool{}
	for _, im := range s.Impacts() {
		if len(want) == 0 || want[im.Kind] {
			out[im.RequestID] = true
		}
	}
	return out
}

// Eval scores a predicted anomaly set against ground truth.
type Eval struct {
	TruePositives, FalsePositives, FalseNegatives int
	Precision, Recall, F1                         float64
}

// Evaluate computes precision, recall, and F1 of a predicted request-ID set
// against the ground-truth set. Empty truth with empty prediction scores a
// perfect 1 (nothing to find, nothing claimed).
func Evaluate(predicted, truth map[uint64]bool) Eval {
	var e Eval
	for id := range predicted { // maporder:ok per-key tally, order-free sum
		if truth[id] {
			e.TruePositives++
		} else {
			e.FalsePositives++
		}
	}
	for id := range truth { // maporder:ok per-key tally, order-free sum
		if !predicted[id] {
			e.FalseNegatives++
		}
	}
	if e.TruePositives+e.FalsePositives > 0 {
		e.Precision = float64(e.TruePositives) / float64(e.TruePositives+e.FalsePositives)
	} else if len(truth) == 0 {
		e.Precision = 1
	}
	if e.TruePositives+e.FalseNegatives > 0 {
		e.Recall = float64(e.TruePositives) / float64(e.TruePositives+e.FalseNegatives)
	} else {
		e.Recall = 1
	}
	if e.Precision+e.Recall > 0 {
		e.F1 = 2 * e.Precision * e.Recall / (e.Precision + e.Recall)
	}
	return e
}

func (e Eval) String() string {
	return fmt.Sprintf("precision %.3f recall %.3f F1 %.3f (tp=%d fp=%d fn=%d)",
		e.Precision, e.Recall, e.F1, e.TruePositives, e.FalsePositives, e.FalseNegatives)
}
