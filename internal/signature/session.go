// Online identification fast path, part 2: per-request streaming state. A
// Session tracks one in-flight request's partial variation pattern and
// answers "which bank entry matches best so far" incrementally: arriving
// buckets cost O(Δ × surviving candidates) instead of the naive
// O(bank × prefix) rescan, while the reported index is bit-identical to
// IdentifyPattern on the same prefix.
//
// Exactness argument. Per-entry accumulators replay prefixL1's own
// left-to-right additions, paused and resumed — the float operation
// sequence is identical, so a fully caught-up accumulator equals the naive
// distance bit for bit. All prefix-L1 terms are non-negative, so a partial
// accumulator is a true lower bound of the entry's current distance, and
// the best (minimum) distance is non-decreasing as the prefix grows. A
// candidate is skipped only when a lower bound proves the naive loop could
// not have adopted it: with entries e compared against the running best
// (bestD at index bestIdx), naive's strict `<` adoption means e loses
// whenever d_e > bestD, or d_e == bestD with e > bestIdx. Early abandoning
// applies the same test to the partial sum mid-accumulation.
package signature

import (
	"math"

	"repro/internal/obs"
)

// sessionObs holds resolved counters for identification's two prune
// stages. The counters are atomic, so sessions attached to one collector
// may share them across goroutines, and a nil pointer — the default for a
// session without a collector — costs one branch per identification.
type sessionObs struct {
	cachedPruned *obs.Counter // stage 1: the cached partial sum already lost
	abandoned    *obs.Counter // stage 2: exact accumulation abandoned early
}

// Session is one in-flight request's incremental matching state against a
// Matcher's bank. Sessions are not safe for concurrent use (give each
// goroutine its own); they are reusable via Reset, and a reused session
// reaches an allocation-free steady state once its buffers have grown.
type Session struct {
	m      *Matcher
	obs    *sessionObs
	prefix []float64 // buckets observed so far
	// acc[e] is entry e's exact L1 sum over prefix[:done[e]]. Prefix-L1
	// distances only grow as the prefix grows, so a sum paused at any
	// earlier prefix stays a lower bound of the entry's current distance:
	// a losing candidate costs one comparison per update until the best
	// distance overtakes its partial sum.
	acc   []float64
	done  []int // per-entry accumulated bucket count
	dirty bool
	best  int
	bestD float64
}

// NewSession starts a fresh in-flight request against the matcher's bank.
func (m *Matcher) NewSession() *Session {
	s := &Session{
		m:    m,
		acc:  make([]float64, len(m.bank.Entries)),
		done: make([]int, len(m.bank.Entries)),
	}
	s.Reset()
	return s
}

// SetObserver attaches the prune counters from the collector; a nil
// collector leaves the session uninstrumented.
func (s *Session) SetObserver(c *obs.Collector) {
	if c == nil {
		return
	}
	s.obs = &sessionObs{
		cachedPruned: c.Counter("signature.prune.cached_lb"),
		abandoned:    c.Counter("signature.prune.abandoned"),
	}
}

// Reset returns the session to the empty-prefix state, keeping its buffers
// for reuse.
func (s *Session) Reset() {
	s.prefix = s.prefix[:0]
	clear(s.acc)
	clear(s.done)
	s.dirty = true
	s.best = -1
	s.bestD = math.Inf(1)
}

// Len returns the number of buckets observed so far.
func (s *Session) Len() int { return len(s.prefix) }

// Extend appends newly observed buckets to the partial pattern.
func (s *Session) Extend(delta ...float64) {
	if len(delta) == 0 {
		return
	}
	s.dirty = true
	s.prefix = append(s.prefix, delta...)
}

// Update synchronizes the session to an externally recomputed prefix. The
// common case — the new prefix extends the observed one — feeds only the
// delta through Extend. When already-observed buckets changed (resampling
// can revise the final partial bucket of a finished trace), the session
// rebuilds from scratch; that happens at most once per request, after which
// the prefix is stable.
func (s *Session) Update(prefix []float64) {
	shared := 0
	for shared < len(s.prefix) && shared < len(prefix) && s.prefix[shared] == prefix[shared] {
		shared++
	}
	if shared < len(s.prefix) {
		s.Reset()
		shared = 0
	}
	s.Extend(prefix[shared:]...)
}

// Best returns the bank index whose signature best matches the partial
// pattern so far — the same index IdentifyPattern returns for the same
// prefix — or -1 for an empty bank.
func (s *Session) Best() int {
	s.identify()
	return s.best
}

// PredictHigh predicts whether the request's CPU consumption will exceed
// the bank threshold — the streaming equivalent of PredictHighUsage.
func (s *Session) PredictHigh() bool {
	return s.m.bank.HighUsage(s.Best())
}

// identify refreshes the cached best match.
func (s *Session) identify() {
	if !s.dirty {
		return
	}
	s.dirty = false
	ne := len(s.m.bank.Entries)
	if ne == 0 {
		s.best, s.bestD = -1, math.Inf(1)
		return
	}
	// Seed the bound with the previous winner: its distance only grew by
	// the new buckets, and it usually still wins, so the scan starts with
	// a tight bestD and most candidates die on a single comparison.
	seed := max(s.best, 0)
	s.catchUpAbandon(seed, math.Inf(1))
	bestIdx, bestD := seed, s.acc[seed]
	n := len(s.prefix)
	// Prune tallies accumulate in locals and flush to the shared atomic
	// counters once per identification, so an attached collector costs
	// two adds per call, not one per pruned candidate.
	var cachedPruned, abandoned uint64
	for e := 0; e < ne; e++ {
		if e == seed {
			continue
		}
		// Stage 1: the cached partial sum kills dead candidates on one
		// comparison.
		if v := s.acc[e]; v > bestD || (v == bestD && e > bestIdx) {
			cachedPruned++
			continue
		}
		// Stage 2: exact accumulation with early abandoning. The abandon
		// deadline overshoots bestD so a losing candidate's accumulator
		// lands well above the bound and stays pruned at stage 1 until
		// bestD genuinely overtakes it — without the overshoot, the
		// bound's steady growth would revive every candidate on every
		// update.
		if s.done[e] < n && !s.catchUpAbandon(e, 2*bestD) {
			abandoned++
			continue
		}
		if d := s.acc[e]; d < bestD || (d == bestD && e < bestIdx) {
			bestIdx, bestD = e, d
		}
	}
	if s.obs != nil {
		s.obs.cachedPruned.Add(cachedPruned)
		s.obs.abandoned.Add(abandoned)
	}
	s.best, s.bestD = bestIdx, bestD
}

// catchUpAbandon accumulates entry e's distance over the unconsumed
// buckets, replaying prefixL1's additions, but abandons once the partial
// sum exceeds limit (≥ the best distance, so an abandoned entry provably
// loses; +Inf never abandons). It reports whether the accumulation ran to
// completion; either way acc/done stay exact for the consumed buckets, so
// later rounds resume where it stopped. Abandonment never decides the winner — a
// completed entry is still adopted by the caller's exact comparison — so
// the limit choice only trades when work happens.
func (s *Session) catchUpAbandon(e int, limit float64) bool {
	pat := s.m.bank.Entries[e].Pattern
	acc := s.acc[e]
	i := s.done[e]
	for ; i < len(s.prefix); i++ {
		if i < len(pat) {
			acc += math.Abs(s.prefix[i] - pat[i])
		} else {
			acc += math.Abs(s.prefix[i])
		}
		if acc > limit {
			i++
			break
		}
	}
	s.acc[e] = acc
	s.done[e] = i
	return i == len(s.prefix)
}
