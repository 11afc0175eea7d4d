package verify

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/distance"
	"repro/internal/fault"
	"repro/internal/signature"
)

// Differential is one fast-path/oracle equivalence check. Check runs a
// seeded randomized trial and returns an error describing the first
// mismatch between the optimized implementation and its naive reference;
// equal seeds replay equal trials, so a failure reported by CI reproduces
// locally from its seed alone.
type Differential struct {
	Name string
	// Check must be safe to call concurrently with other Check calls (the
	// suite runs under -race at several GOMAXPROCS settings).
	Check func(seed int64) error
}

// differentials pairs every fast path in the repository with its reference
// oracle. The suite is the authoritative list — tests range over it, so a
// new fast path earns continuous differential coverage by adding one entry
// here.
func differentials() []Differential {
	return []Differential{
		{Name: "matrix/parallel-vs-serial", Check: checkMatrixParallel},
		{Name: "dtw/blocked-vs-reference", Check: checkDTWBlocked},
		{Name: "signature/session-vs-naive", Check: checkSessionNaive},
		{Name: "signature/reused-session-vs-naive", Check: checkReusedSessionNaive},
		{Name: "pastrequests/ring-vs-recompute", Check: checkPastRequests},
		{Name: "fault/evaluate-vs-bruteforce", Check: checkFaultEvaluate},
		{Name: "causal/localizer-vs-bruteforce", Check: checkCausalLocalize},
		{Name: "sched/policy-conservation", Check: checkPolicyConservation},
		{Name: "signature/pattern-matrix-vs-pairwise", Check: checkPatternMatrix},
		{Name: "cluster/kmedoids-vs-reference", Check: checkKMedoids},
	}
}

// randSeq draws a length-n sequence of non-negative values shaped like the
// resampled metric patterns the real pipeline produces.
func randSeq(r *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 4 * r.Float64()
		if r.Intn(8) == 0 {
			s[i] *= 10 // occasional spike, like a pollution burst
		}
	}
	return s
}

// sameFloat reports whether a and b have the same bits or are both NaN.
// Go leaves the payload of a NaN result unspecified: the compiler may
// commute the operands of an addition, and x86 returns the first operand's
// NaN, so two compilations of one expression can yield different NaN bits.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// checkMatrixParallel: the parallel triangular fill must be bit-identical
// to a serial fill of the same population under the same measure.
func checkMatrixParallel(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	n := 12 + r.Intn(30)
	seqs := make([][]float64, n)
	for i := range seqs {
		seqs[i] = randSeq(r, 5+r.Intn(40))
	}
	d := distance.DTW{AsyncPenalty: r.Float64()}
	serial := distance.NewMatrixFromSequences(seqs, d, distance.MatrixOptions{Workers: 1})
	par := distance.NewMatrixFromSequences(seqs, d, distance.MatrixOptions{
		Workers:  2 + r.Intn(7),
		RowBlock: 1 + r.Intn(4),
	})
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if s, p := serial.At(i, j), par.At(i, j); math.Float64bits(s) != math.Float64bits(p) {
				return fmt.Errorf("cell (%d,%d): serial %v, parallel %v", i, j, s, p)
			}
		}
	}
	return nil
}

// referenceDTW is the DTW distance computed one DP row at a time,
// the plain form of Equation 3 with the asynchrony penalty: each cell waits
// on its left neighbour. distance.DTW fills several rows per sweep instead;
// this loop is the oracle it must match bit for bit. Both inputs must be
// non-empty.
func referenceDTW(x, y []float64, penalty float64) float64 {
	m, n := len(x), len(y)
	prev, cur := make([]float64, n), make([]float64, n)
	prev[0] = math.Abs(x[0] - y[0])
	for j := 1; j < n; j++ {
		prev[j] = prev[j-1] + math.Abs(x[0]-y[j]) + penalty
	}
	for i := 1; i < m; i++ {
		cur[0] = prev[0] + math.Abs(x[i]-y[0]) + penalty
		for j := 1; j < n; j++ {
			diff := math.Abs(x[i] - y[j])
			best := prev[j-1] + diff // synchronous step
			if alt := prev[j] + diff + penalty; alt < best {
				best = alt // advance x only
			}
			if alt := cur[j-1] + diff + penalty; alt < best {
				best = alt // advance y only
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[n-1]
}

// checkDTWBlocked: the row-blocked exact kernel must be bit-identical to
// the row-at-a-time reference for every pair of a random population under
// a zero, a positive and a negative penalty. The first eight lengths are
// 0–7, so every trial covers grids shorter than one block and every
// remainder of rows modulo the block height; the rest reach 70.
func checkDTWBlocked(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	pool := make([][]float64, 12)
	for i := range pool {
		n := i
		if i >= 8 {
			n = r.Intn(71)
		}
		pool[i] = randSeq(r, n)
	}
	for _, penalty := range []float64{0, r.Float64(), -r.Float64()} {
		d := distance.DTW{AsyncPenalty: penalty}
		for i, x := range pool {
			for j, y := range pool {
				if len(x) == 0 || len(y) == 0 {
					continue // early returns, covered by the distance package's tests
				}
				got, want := d.Distance(x, y), referenceDTW(x, y, penalty)
				if math.Float64bits(got) != math.Float64bits(want) {
					return fmt.Errorf("pair (%d,%d) len (%d,%d) penalty %v: blocked %v, reference %v",
						i, j, len(x), len(y), penalty, got, want)
				}
			}
		}
	}
	return nil
}

// randBank builds a bank of random signature patterns, with deliberate
// duplicates so tie-breaking is exercised (naive adoption is strict <, so
// the lowest index wins a tie — the fast path must reproduce that).
func randBank(r *rand.Rand) *signature.Bank {
	b := &signature.Bank{BucketIns: 1e6}
	n := 3 + r.Intn(20)
	for i := 0; i < n; i++ {
		var pat []float64
		if i > 0 && r.Intn(5) == 0 {
			pat = append([]float64{}, b.Entries[r.Intn(i)].Pattern...) // duplicate: forces a tie
		} else {
			pat = randSeq(r, r.Intn(24)) // may be empty or shorter than prefixes
		}
		b.Entries = append(b.Entries, signature.Entry{
			Pattern:   pat,
			CPUTimeNs: r.Float64() * 1e7,
		})
	}
	b.ThresholdNs = 5e6
	return b
}

// naiveIdentify is the bank identification oracle: a plain PatternDistance
// scan over every entry, nothing pruned or abandoned, keeping the first
// strict minimum (-1 and +Inf for an empty bank).
func naiveIdentify(bank *signature.Bank, prefix []float64) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i := range bank.Entries {
		if d := signature.PatternDistance(prefix, bank.Entries[i].Pattern); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// checkSessionNaive: a Session's incremental Best must equal the naive
// rescan after every extension, including mid-request prefix rewrites
// (Update with a changed bucket forces the rebuild path).
func checkSessionNaive(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	bank := randBank(r)
	m := signature.NewMatcher(bank)
	s := m.NewSession()
	var prefix []float64
	for step := 0; step < 30; step++ {
		if r.Intn(10) == 0 && len(prefix) > 0 {
			// Resampling revised an already-observed bucket: rebuild.
			prefix = append([]float64{}, prefix...)
			prefix[r.Intn(len(prefix))] += r.Float64()
			s.Update(prefix)
		} else {
			delta := randSeq(r, 1+r.Intn(3))
			prefix = append(prefix, delta...)
			s.Extend(delta...)
		}
		want, _ := naiveIdentify(bank, prefix)
		if got := s.Best(); got != want {
			return fmt.Errorf("step %d (prefix %d): session best %d, naive %d", step, len(prefix), got, want)
		}
		wantHigh := bank.HighUsage(want)
		if s.PredictHigh() != wantHigh {
			return fmt.Errorf("step %d: session PredictHigh %v, naive %v", step, s.PredictHigh(), wantHigh)
		}
		if bank.PredictHighUsage(prefix) != wantHigh {
			return fmt.Errorf("step %d: bank PredictHighUsage %v, naive %v", step, !wantHigh, wantHigh)
		}
	}
	return nil
}

// checkReusedSessionNaive: one session reused across requests — Reset
// before each request, then chunked Extends — must report after every
// step the same best index as the naive scan of the current bank, and the
// bank's own early-abandoning IdentifyPatternScored, the scan the serving
// engine runs, must give that index and bitwise the same distance. A bank
// swap may land mid-request; the session then restarts on a new matcher
// over the new bank from the prefix observed so far.
func checkReusedSessionNaive(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	bank := randBank(r)
	m := signature.NewMatcher(bank)
	s := m.NewSession()
	for req := 0; req < 8; req++ {
		s.Reset()
		var prefix []float64
		for step, n := 0, 1+r.Intn(8); step < n; step++ {
			if r.Intn(4) == 0 {
				bank = randBank(r)
				m = signature.NewMatcher(bank)
				s = m.NewSession()
				s.Extend(prefix...)
			}
			delta := randSeq(r, 1+r.Intn(3))
			prefix = append(prefix, delta...)
			s.Extend(delta...)
			want, wantD := naiveIdentify(bank, prefix)
			if got := s.Best(); got != want {
				return fmt.Errorf("request %d step %d (prefix %d): session best %d, naive %d",
					req, step, len(prefix), got, want)
			}
			if got, gotD := bank.IdentifyPatternScored(prefix); got != want || !sameFloat(gotD, wantD) {
				return fmt.Errorf("request %d step %d (prefix %d): IdentifyPatternScored (%d, %v), naive (%d, %v)",
					req, step, len(prefix), got, gotD, want, wantD)
			}
		}
	}
	return nil
}

// checkPastRequests: the O(1) ring-plus-running-sum predictor must agree
// with a from-scratch mean over the trailing window after every
// observation.
func checkPastRequests(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	size := 1 + r.Intn(12)
	p := signature.NewPastRequests(size)
	threshold := 5e6
	var history []float64
	for step := 0; step < 200; step++ {
		cpu := r.Float64() * 1e7
		p.Observe(cpu)
		history = append(history, cpu)
		window := history
		if len(window) > size {
			window = window[len(window)-size:]
		}
		var sum float64
		for _, v := range window {
			sum += v
		}
		want := sum/float64(len(window)) > threshold
		if got := p.PredictHigh(threshold); got != want {
			return fmt.Errorf("step %d (window %d): ring %v, recompute %v", step, len(window), got, want)
		}
	}
	return nil
}

// checkFaultEvaluate: precision/recall/F1 from fault.Evaluate must match a
// brute-force recount over explicit set intersections, including the
// empty-truth conventions.
func checkFaultEvaluate(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	randSet := func() map[uint64]bool {
		s := map[uint64]bool{}
		for n := r.Intn(40); n > 0; n-- {
			s[uint64(r.Intn(50))] = true
		}
		return s
	}
	for trial := 0; trial < 20; trial++ {
		pred, truth := randSet(), randSet()
		switch trial {
		case 0:
			pred, truth = map[uint64]bool{}, map[uint64]bool{} // both-empty convention: perfect score
		case 1:
			truth = map[uint64]bool{} // nothing to find, false alarms only
		case 2:
			pred = map[uint64]bool{} // everything missed
		}
		got := fault.Evaluate(pred, truth)
		var tp int
		for id := range pred { // maporder:ok per-key tally, order-free sum
			if truth[id] {
				tp++
			}
		}
		want := fault.Eval{TruePositives: tp, FalsePositives: len(pred) - tp, FalseNegatives: len(truth) - tp}
		want.Precision, want.Recall, want.F1 = prf(tp, len(pred), len(truth))
		if got != want {
			return fmt.Errorf("trial %d: Evaluate %+v, brute force %+v", trial, got, want)
		}
	}
	return nil
}

// prf computes precision/recall/F1 from the set sizes, as an independent
// reimplementation of fault.Evaluate's arithmetic and its documented
// empty-set conventions: nothing to find scores recall 1 regardless of
// claims, and claiming nothing is perfect precision only when there was
// nothing to find.
func prf(tp, predicted, truth int) (p, rec, f1 float64) {
	switch {
	case predicted > 0:
		p = float64(tp) / float64(predicted)
	case truth == 0:
		p = 1
	}
	if truth == 0 {
		rec = 1
	} else {
		rec = float64(tp) / float64(truth)
	}
	if p+rec > 0 {
		f1 = 2 * p * rec / (p + rec)
	}
	return p, rec, f1
}
