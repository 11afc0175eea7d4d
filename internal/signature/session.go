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

// sessionObs holds resolved counters for the identification cascade's three
// prune stages. The counters are atomic, so sessions attached to one
// collector may share them across goroutines, and a nil pointer — the
// default for a session without a collector — costs one branch per
// identification.
type sessionObs struct {
	cachedPruned *obs.Counter // stage 1: cached lower bound won
	paaPruned    *obs.Counter // stage 2: piecewise-aggregate bound won
	abandoned    *obs.Counter // stage 3: exact accumulation abandoned early
}

// Session is one in-flight request's incremental matching state against a
// Matcher's bank. Sessions are not safe for concurrent use (give each
// goroutine its own); they are reusable via Reset, and a reused session
// reaches an allocation-free steady state once its buffers have grown.
type Session struct {
	m      *Matcher
	obs    *sessionObs
	prefix []float64 // buckets observed so far
	segP   []float64 // complete-segment sums of prefix (paaSegment wide)
	acc    []float64 // per-entry exact L1 sum over prefix[:done[e]]
	done   []int     // per-entry accumulated bucket count
	// lb caches each entry's best-known lower bound on its current
	// distance. Prefix-L1 distances only grow as the prefix grows, so a
	// bound computed at any earlier prefix stays valid — a candidate
	// pruned by the piecewise-aggregate bound then costs one comparison
	// per update until the best distance overtakes its cached bound,
	// instead of a fresh bound evaluation every time.
	lb    []float64
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
		lb:   make([]float64, len(m.bank.Entries)),
	}
	s.Reset()
	return s
}

// SetObserver attaches the cascade's prune counters from the collector; a
// nil collector leaves the session uninstrumented.
func (s *Session) SetObserver(c *obs.Collector) {
	if c == nil {
		return
	}
	s.obs = &sessionObs{
		cachedPruned: c.Counter("signature.prune.cached_lb"),
		paaPruned:    c.Counter("signature.prune.paa_bound"),
		abandoned:    c.Counter("signature.prune.abandoned"),
	}
}

// Reset returns the session to the empty-prefix state, keeping its buffers
// for reuse.
func (s *Session) Reset() {
	s.prefix = s.prefix[:0]
	s.segP = s.segP[:0]
	for e := range s.acc {
		s.acc[e] = 0
		s.done[e] = 0
		s.lb[e] = 0
	}
	s.dirty = true
	s.best = -1
	s.bestD = math.Inf(1)
}

// Len returns the number of buckets observed so far.
func (s *Session) Len() int { return len(s.prefix) }

// Rebind repoints the session at a new matcher (a swapped signature
// bank), keeping the observed prefix. All per-entry accumulators reset to
// zero, so the next identification catches every entry of the new bank up
// over the full prefix — exactly the state a fresh session fed the same
// prefix would reach, which keeps mid-flight requests' results identical
// to IdentifyPattern against the new bank. Buffers are reused; a rebind
// between same-sized banks allocates nothing.
func (s *Session) Rebind(m *Matcher) {
	s.m = m
	n := len(m.bank.Entries)
	if cap(s.acc) >= n {
		s.acc = s.acc[:n]
		s.done = s.done[:n]
		s.lb = s.lb[:n]
	} else {
		s.acc = make([]float64, n)
		s.done = make([]int, n)
		s.lb = make([]float64, n)
	}
	for e := 0; e < n; e++ {
		s.acc[e] = 0
		s.done[e] = 0
		s.lb[e] = 0
	}
	s.dirty = true
	s.best = -1
	s.bestD = math.Inf(1)
}

// Extend appends newly observed buckets to the partial pattern.
func (s *Session) Extend(delta ...float64) {
	if len(delta) == 0 {
		return
	}
	s.dirty = true
	s.prefix = append(s.prefix, delta...)
	for len(s.segP)*paaSegment+paaSegment <= len(s.prefix) {
		base := len(s.segP) * paaSegment
		var sum float64
		for i := base; i < base+paaSegment; i++ {
			sum += s.prefix[i]
		}
		s.segP = append(s.segP, sum)
	}
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

// BestDistance returns the prefix-L1 distance of the best match
// (+Inf for an empty bank).
func (s *Session) BestDistance() float64 {
	s.identify()
	return s.bestD
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
	seed := s.best
	if seed < 0 {
		seed = 0
	}
	bestIdx, bestD := seed, s.catchUp(seed)
	s.lb[seed] = s.acc[seed]
	n := len(s.prefix)
	// Prune tallies accumulate in locals and flush to the shared atomic
	// counters once per identification, so an attached collector costs
	// three adds per call, not one per pruned candidate.
	var cachedPruned, paaPruned, abandoned uint64
	for e := 0; e < ne; e++ {
		if e == seed {
			continue
		}
		// Cascade stage 1: the cached lower bound (exact partial sum or an
		// earlier envelope bound) kills dead candidates on one comparison.
		if v := s.lb[e]; v > bestD || (v == bestD && e > bestIdx) {
			cachedPruned++
			continue
		}
		if s.done[e] < n {
			// Stage 2: refresh the cheap piecewise-aggregate bound over
			// the unaccumulated gap, and cache it.
			lb := s.acc[e] + s.m.paaRemaining(e, s.done[e], s.segP)
			s.lb[e] = lb
			if lb > bestD || (lb == bestD && e > bestIdx) {
				paaPruned++
				continue
			}
			// Stage 3: exact accumulation with early abandoning. The
			// abandon deadline overshoots bestD so a losing candidate's
			// accumulator lands well above the bound and stays pruned at
			// stage 1 until bestD genuinely overtakes it — without the
			// overshoot, the bound's steady growth would revive every
			// candidate on every update.
			complete := s.catchUpAbandon(e, 2*bestD)
			s.lb[e] = s.acc[e]
			if !complete {
				abandoned++
				continue
			}
		}
		if d := s.acc[e]; d < bestD || (d == bestD && e < bestIdx) {
			bestIdx, bestD = e, d
		}
	}
	if s.obs != nil {
		s.obs.cachedPruned.Add(cachedPruned)
		s.obs.paaPruned.Add(paaPruned)
		s.obs.abandoned.Add(abandoned)
	}
	s.best, s.bestD = bestIdx, bestD
}

// catchUp accumulates entry e's distance over all unconsumed buckets and
// returns the exact prefix-L1 distance.
func (s *Session) catchUp(e int) float64 {
	pat := s.m.bank.Entries[e].Pattern
	acc := s.acc[e]
	for i := s.done[e]; i < len(s.prefix); i++ {
		if i < len(pat) {
			acc += math.Abs(s.prefix[i] - pat[i])
		} else {
			acc += math.Abs(s.prefix[i])
		}
	}
	s.acc[e] = acc
	s.done[e] = len(s.prefix)
	return acc
}

// catchUpAbandon accumulates entry e like catchUp but abandons once the
// partial sum exceeds limit (≥ the best distance, so an abandoned entry
// provably loses). It reports whether the accumulation ran to completion;
// either way acc/done stay exact for the consumed buckets, so later rounds
// resume where it stopped. Abandonment never decides the winner — a
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
