// Package sched implements the contention-easing CPU scheduling of
// Section 5.2: requests in high resource usage periods should avoid
// co-execution. At each scheduling opportunity the policy checks whether
// any other core is executing a request predicted to be in a high-usage
// period (L2 cache misses per instruction above the workload's
// 80-percentile threshold); if so, it searches the local runqueue for a
// request not in a high-usage period, picking the one closest to the head.
// If none exists it gives up and schedules normally. Requests never migrate
// between core runqueues, and the current request is kept at the head of
// the runqueue so that resuming it costs no context switch — both per the
// paper.
//
// The resource usage of the coming period is predicted online with the
// paper's vaEWMA filter over the sampling layer's per-period observations.
package sched

import (
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Monitor maintains per-request online predictions of L2 misses per
// instruction from the sampling layer's period stream.
type Monitor struct {
	// Alpha is the vaEWMA gain (the paper settles on 0.6).
	Alpha float64
	// UnitNs is the filter's unit observation length t̂ (1 ms).
	UnitNs float64

	preds map[*kernel.RequestRun]*predict.VaEWMA
}

// NewMonitor subscribes a monitor to a tracker's period stream and wires
// request completion to Forget, so predictor state cannot outlive its
// request: the final period is attributed at the completion context switch
// (before the run is marked done), then the kernel's completion callbacks
// — this cleanup among them — fire within the same virtual instant.
func NewMonitor(tk *sampling.Tracker, alpha float64) *Monitor {
	m := &Monitor{
		Alpha:  alpha,
		UnitNs: float64(sim.Millisecond),
		preds:  map[*kernel.RequestRun]*predict.VaEWMA{},
	}
	tk.OnPeriod(m.onPeriod)
	tk.Kernel().OnRequestDone(m.Forget)
	return m
}

func (m *Monitor) onPeriod(run *kernel.RequestRun, _ *trace.Request, dur sim.Time, c metrics.Counters) {
	if run.Done {
		delete(m.preds, run)
		return
	}
	if c.Instructions == 0 {
		return
	}
	p := m.preds[run]
	if p == nil {
		p = predict.NewVaEWMA(m.Alpha, m.UnitNs)
		m.preds[run] = p
	}
	p.Observe(c.Value(metrics.L2MissesPerIns), float64(dur))
}

// Forget drops a completed request's predictor state.
func (m *Monitor) Forget(run *kernel.RequestRun) { delete(m.preds, run) }

// Predicted returns the request's predicted L2 misses per instruction for
// its coming execution period (0 if never observed).
func (m *Monitor) Predicted(run *kernel.RequestRun) float64 {
	if p := m.preds[run]; p != nil {
		return p.Predict()
	}
	return 0
}

// ContentionEasing is the Section 5.2 scheduling policy.
type ContentionEasing struct {
	// Monitor provides online usage predictions.
	Monitor *Monitor
	// Threshold is the high-usage boundary: the 80-percentile of L2 cache
	// misses per instruction for the application.
	Threshold float64
	// RescheduleInterval overrides the default 5 ms re-scheduling attempt
	// interval when positive.
	RescheduleInterval sim.Time

	// Stats counts policy decisions for evaluation.
	Stats struct {
		Opportunities uint64 // Pick calls with queued alternatives
		Eased         uint64 // picked a low-usage request over the default
		GaveUp        uint64 // no low-usage candidate existed
	}
}

// NewContentionEasing builds the policy with the paper's 5 ms interval.
func NewContentionEasing(m *Monitor, threshold float64) *ContentionEasing {
	return &ContentionEasing{
		Monitor:            m,
		Threshold:          threshold,
		RescheduleInterval: 5 * sim.Millisecond,
	}
}

// Quantum implements kernel.Policy: re-scheduling attempts at no more than
// 5 ms intervals.
func (p *ContentionEasing) Quantum(*kernel.Kernel) sim.Time {
	if p.RescheduleInterval > 0 {
		return p.RescheduleInterval
	}
	return 5 * sim.Millisecond
}

// high reports whether a thread's request is predicted to be in a high
// resource usage period.
func (p *ContentionEasing) high(t *kernel.Thread) bool {
	if t == nil || t.Run == nil {
		return false
	}
	return p.Monitor.Predicted(t.Run) >= p.Threshold
}

// Pick implements kernel.Policy.
func (p *ContentionEasing) Pick(k *kernel.Kernel, core int, cands []*kernel.Thread, curIncluded bool) int {
	if len(cands) > 1 {
		p.Stats.Opportunities++
	}
	// Step 1: is any other CPU core currently executing a request in a
	// high resource usage period?
	otherHigh := false
	for c := 0; c < k.Machine().NumCores(); c++ {
		if c == core {
			continue
		}
		if run := k.CurrentRun(c); run != nil && p.Monitor.Predicted(run) >= p.Threshold {
			otherHigh = true
			break
		}
	}
	if !otherHigh {
		// Schedule in the normal fashion: the head (or keep the current).
		return 0
	}
	// Step 2: pick the request closest to the head that is not in a high
	// resource usage period. The current thread sits at index 0 when
	// curIncluded, honoring "keep the current request at the head".
	return p.pickEased(cands)
}

// pickEased scans the candidates in queue order for the first one not in a
// high-usage period, giving up to the head when none exists. Split out so
// the tie-break order (lowest index wins, never map order) is unit-testable
// without simulated co-runners.
func (p *ContentionEasing) pickEased(cands []*kernel.Thread) int {
	for i, t := range cands {
		if !p.high(t) {
			if i > 0 {
				p.Stats.Eased++
			}
			return i
		}
	}
	// No such request: give up and schedule normally.
	p.Stats.GaveUp++
	return 0
}

// HighUsageThreshold computes the paper's threshold from an application's
// traced periods: the pct-percentile (80 in the paper) of per-period L2
// misses per instruction.
func HighUsageThreshold(store *trace.Store, pct float64) float64 {
	var vals []float64
	for _, tr := range store.Traces {
		for _, p := range tr.Periods {
			if p.C.Instructions > 0 {
				vals = append(vals, p.C.Value(metrics.L2MissesPerIns))
			}
		}
	}
	return stats.Percentile(vals, pct)
}

// HighUsageCoExecution measures, from a run's concurrency samples, the
// proportion of execution time during which at least k cores simultaneously
// executed at high resource usage levels — Figure 12's metric.
type HighUsageCoExecution struct {
	// AtLeast2, AtLeast3, All4 are time proportions in [0,1].
	AtLeast2, AtLeast3, All4 float64
}

// interface check
var _ kernel.Policy = (*ContentionEasing)(nil)
