// Online identification fast path. A Matcher freezes a Bank for
// streaming identification by writing its patterns once into a Columns
// store; Sessions started on it keep all per-request state. A Session
// tracks one in-flight request's partial variation pattern and answers
// "which bank entry matches best so far" incrementally: an arriving bucket
// costs one pass over one store row, O(bank), instead of the naive
// O(bank × prefix) rescan, while the reported index and distance are
// bit-identical to IdentifyPattern on the same prefix.
//
// Exactness argument. acc[e] adds entry e's terms in prefixL1's own
// left-to-right order, one bucket per Extend: |x − row[e]| while the
// bucket lies inside the store, |x| past its widest entry. Inside the
// store, an entry shorter than the prefix reads its zero padding, and
// x − 0 is exactly x (see PatternMatrix), so the term equals prefixL1's
// tail charge |x|. Every sum is therefore prefixL1's sum bit for bit, NaN,
// ±Inf and −0 included, and Best's first strict minimum over acc is the
// plain scan's.
package signature

import "math"

// Matcher is an immutable view of a Bank prepared for streaming
// identification: the bank and its patterns in column layout. It is safe
// for concurrent use: any number of Sessions may read it at once.
type Matcher struct {
	bank *Bank
	cols Columns
}

// NewMatcher prepares a bank for streaming identification. The bank must
// not be mutated afterwards; to identify against a new bank, start a new
// matcher and new sessions on it.
func NewMatcher(b *Bank) *Matcher {
	m := &Matcher{bank: b}
	m.cols.Set(b.Entries)
	return m
}

// Bank returns the matcher's underlying bank.
func (m *Matcher) Bank() *Bank { return m.bank }

// Session is one in-flight request's incremental matching state against a
// Matcher's bank. Sessions are not safe for concurrent use (give each
// goroutine its own); they are reusable via Reset, and a reused session
// reaches an allocation-free steady state once its prefix buffer has grown.
type Session struct {
	m      *Matcher
	prefix []float64 // buckets observed so far
	acc    []float64 // acc[e] is entry e's prefix-L1 distance over prefix
	dirty  bool      // best and bestD predate the last Extend
	best   int
	bestD  float64
}

// NewSession starts a fresh in-flight request against the matcher's bank.
func (m *Matcher) NewSession() *Session {
	return &Session{m: m, acc: make([]float64, m.cols.n), dirty: true}
}

// Reset returns the session to the empty-prefix state, keeping its buffers
// for reuse.
func (s *Session) Reset() {
	s.prefix = s.prefix[:0]
	clear(s.acc)
	s.dirty = true
}

// Len returns the number of buckets observed so far.
func (s *Session) Len() int { return len(s.prefix) }

// Extend appends newly observed buckets to the partial pattern, adding
// each bucket's term to every entry's sum.
func (s *Session) Extend(delta ...float64) {
	if len(delta) == 0 {
		return
	}
	c, acc := &s.m.cols, s.acc
	for _, x := range delta {
		t := len(s.prefix)
		s.prefix = append(s.prefix, x)
		if t >= c.width {
			a := math.Abs(x)
			for e := range acc {
				acc[e] += a
			}
			continue
		}
		row := c.cols[t*c.n : (t+1)*c.n]
		acc := acc[:len(row)]
		for e, v := range row {
			acc[e] += math.Abs(x - v)
		}
	}
	s.dirty = true
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
	if s.dirty {
		best, bestD := -1, math.Inf(1)
		for e, d := range s.acc {
			if d < bestD {
				best, bestD = e, d
			}
		}
		s.best, s.bestD, s.dirty = best, bestD, false
	}
	return s.best
}

// PredictHigh predicts whether the request's CPU consumption will exceed
// the bank threshold — the streaming equivalent of PredictHighUsage.
func (s *Session) PredictHigh() bool {
	return s.m.bank.HighUsage(s.Best())
}
