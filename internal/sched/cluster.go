// Signature-cluster co-scheduling: an extension beyond the paper that
// combines its two halves. Section 4.4 identifies an in-flight request
// against a signature bank from its partial variation pattern; Section 5.2
// eases contention by not co-running predicted high-usage requests. This
// policy joins them: two high-usage requests matching the *same* bank
// signature are the worst co-runners (same phase structure, so their cache
// pollution peaks coincide), and the scheduler avoids adding a runnable
// request to a core while another core runs a high-usage request of the
// same signature cluster.
package sched

import (
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/signature"
	"repro/internal/sim"
	"repro/internal/trace"
)

// sessionState is one in-flight request's streaming identification state:
// a matcher session plus the partial instruction bucket being accumulated.
type sessionState struct {
	sess *signature.Session
	// bucketLen/bucketSum replay timeseries.Resample incrementally: each
	// attributed period contributes (instructions × metric value), and a
	// full bucket is flushed into the session as one pattern point.
	bucketLen, bucketSum float64
}

// SignatureSessions feeds every in-flight request's sampled periods into an
// incremental signature-matching session, giving policies an online answer
// to "which bank entry does this request look like so far" (Cluster) and
// "how much CPU will it consume" (PredictedCPUNs). Completed buckets are
// bit-identical to resampling the finished trace, so identification matches
// the offline IdentifyPattern on the same prefix.
type SignatureSessions struct {
	matcher   *signature.Matcher
	metric    metrics.Metric
	bucketIns float64

	states map[*kernel.RequestRun]*sessionState
	free   []*signature.Session // reset sessions pooled for reuse
}

// NewSignatureSessions subscribes to a tracker's period stream and wires
// request completion to cleanup, mirroring Monitor's lifecycle. The bank
// must have a positive BucketIns and at least one entry.
func NewSignatureSessions(tk *sampling.Tracker, bank *signature.Bank) *SignatureSessions {
	s := &SignatureSessions{
		matcher:   signature.NewMatcher(bank),
		metric:    bank.Metric,
		bucketIns: bank.BucketIns,
		states:    map[*kernel.RequestRun]*sessionState{},
	}
	tk.OnPeriod(s.onPeriod)
	tk.Kernel().OnRequestDone(s.Forget)
	return s
}

func (s *SignatureSessions) onPeriod(run *kernel.RequestRun, _ *trace.Request, _ sim.Time, c metrics.Counters) {
	if run.Done {
		s.Forget(run)
		return
	}
	if c.Instructions == 0 {
		return
	}
	st := s.states[run]
	if st == nil {
		st = &sessionState{}
		if n := len(s.free); n > 0 {
			st.sess = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			st.sess = s.matcher.NewSession()
		}
		s.states[run] = st
	}
	// Stream the period into fixed instruction buckets (the incremental
	// counterpart of timeseries.Resample; partial tail buckets wait for
	// more instructions rather than being reported early).
	rem := float64(c.Instructions)
	v := c.Value(s.metric)
	for rem > 0 {
		take := rem
		if space := s.bucketIns - st.bucketLen; take > space {
			take = space
		}
		st.bucketLen += take
		st.bucketSum += take * v
		rem -= take
		if st.bucketLen >= s.bucketIns {
			st.sess.Extend(st.bucketSum / st.bucketLen)
			st.bucketLen, st.bucketSum = 0, 0
		}
	}
}

// Forget releases a completed request's session back to the pool.
func (s *SignatureSessions) Forget(run *kernel.RequestRun) {
	if st := s.states[run]; st != nil {
		st.sess.Reset()
		s.free = append(s.free, st.sess)
		delete(s.states, run)
	}
}

// Cluster returns the bank entry index the request's partial pattern best
// matches, or -1 while nothing has been observed yet.
func (s *SignatureSessions) Cluster(run *kernel.RequestRun) int {
	st := s.states[run]
	if st == nil || st.sess.Len() == 0 {
		return -1
	}
	return st.sess.Best()
}

// PredictedCPUNs returns the CPU consumption of the request's best-matching
// bank entry (0 while unidentified) — the online Section 4.4 prediction.
func (s *SignatureSessions) PredictedCPUNs(run *kernel.RequestRun) float64 {
	c := s.Cluster(run)
	if c < 0 {
		return 0
	}
	return s.matcher.Bank().Entries[c].CPUTimeNs
}

// ClusterCoSched avoids co-running same-cluster cache polluters. At each
// scheduling opportunity it collects the signature clusters of high-usage
// requests running on other cores; if the head candidate is a high-usage
// request in one of those clusters, it picks the closest-to-head candidate
// that is not (keeping the current request at the head per the paper's
// no-migration, resume-free rule). With no hot clusters it schedules
// normally, and with no acceptable candidate it gives up.
type ClusterCoSched struct {
	// Monitor provides online usage predictions.
	Monitor *Monitor
	// Sessions provides online signature-cluster identification.
	Sessions *SignatureSessions
	// Threshold is the high-usage boundary (see HighUsageThreshold).
	Threshold float64
	// RescheduleInterval mirrors ContentionEasing's 5 ms default.
	RescheduleInterval sim.Time

	// Stats counts policy decisions.
	Stats struct {
		Opportunities uint64 // Pick calls with queued alternatives
		Eased         uint64 // picked past a same-cluster polluter
		GaveUp        uint64 // every candidate was a same-cluster polluter
	}
}

// NewClusterCoSched builds the policy with the paper's 5 ms interval.
func NewClusterCoSched(m *Monitor, s *SignatureSessions, threshold float64) *ClusterCoSched {
	return &ClusterCoSched{
		Monitor:            m,
		Sessions:           s,
		Threshold:          threshold,
		RescheduleInterval: 5 * sim.Millisecond,
	}
}

// Quantum implements kernel.Policy.
func (p *ClusterCoSched) Quantum(*kernel.Kernel) sim.Time {
	if p.RescheduleInterval > 0 {
		return p.RescheduleInterval
	}
	return 5 * sim.Millisecond
}

// hotClusters returns a bitmask of the signature clusters of high-usage
// requests currently running on other cores (clusters ≥ 64 saturate into
// bit 63; banks are compacted far below that).
func (p *ClusterCoSched) hotClusters(k *kernel.Kernel, core int) uint64 {
	var mask uint64
	for c := 0; c < k.Machine().NumCores(); c++ {
		if c == core {
			continue
		}
		run := k.CurrentRun(c)
		if run == nil || p.Monitor.Predicted(run) < p.Threshold {
			continue
		}
		cl := p.Sessions.Cluster(run)
		if cl < 0 {
			continue
		}
		if cl > 63 {
			cl = 63
		}
		mask |= 1 << uint(cl)
	}
	return mask
}

// pollutes reports whether scheduling t would co-run a high-usage request
// whose signature cluster is already hot on another core.
func (p *ClusterCoSched) pollutes(t *kernel.Thread, mask uint64) bool {
	if t == nil || t.Run == nil {
		return false
	}
	if p.Monitor.Predicted(t.Run) < p.Threshold {
		return false
	}
	cl := p.Sessions.Cluster(t.Run)
	if cl < 0 {
		return false
	}
	if cl > 63 {
		cl = 63
	}
	return mask&(1<<uint(cl)) != 0
}

// Pick implements kernel.Policy. Tie-break is by candidate index (closest
// to the head wins), never map order.
func (p *ClusterCoSched) Pick(k *kernel.Kernel, core int, cands []*kernel.Thread, curIncluded bool) int {
	if len(cands) > 1 {
		p.Stats.Opportunities++
	}
	mask := p.hotClusters(k, core)
	if mask == 0 {
		return 0
	}
	return p.pickAvoiding(mask, cands)
}

// pickAvoiding picks the first candidate that is not a same-cluster
// polluter under the hot-cluster mask, giving up to the head when every
// candidate pollutes. Split out so the tie-break order is unit-testable
// without simulated co-runners.
func (p *ClusterCoSched) pickAvoiding(mask uint64, cands []*kernel.Thread) int {
	for i, t := range cands {
		if !p.pollutes(t, mask) {
			if i > 0 {
				p.Stats.Eased++
			}
			return i
		}
	}
	p.Stats.GaveUp++
	return 0
}

var _ kernel.Policy = (*ClusterCoSched)(nil)
