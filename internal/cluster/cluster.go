// Package cluster implements the k-medoids classification of Section 4.2:
// k-means-style iteration where each cluster is represented by its centroid
// request (the member minimizing the summed distance to all other members),
// since the mean of a set of request variation patterns is not well defined.
package cluster

import (
	"math"

	"repro/internal/distance"
	"repro/internal/sim"
)

// DistFunc returns the dissimilarity between items i and j of the
// population being clustered. KMedoids precomputes all pairs through the
// parallel distance engine, so the function must be safe for concurrent
// calls — pure functions over read-only inputs (every distance.Measure)
// qualify.
type DistFunc func(i, j int) float64

// Result is a k-medoids clustering outcome.
type Result struct {
	// Medoids holds the item index of each cluster's centroid request.
	// Indices are unique: an emptied cluster is re-seeded rather than left
	// pointing at a stale (possibly shared) medoid.
	Medoids []int
	// Assign maps each item to its cluster (index into Medoids).
	Assign []int
	// Iterations is the number of refinement rounds performed.
	Iterations int
}

// Members returns the item indices assigned to cluster c.
func (r *Result) Members(c int) []int {
	var out []int
	for i, a := range r.Assign {
		if a == c {
			out = append(out, i)
		}
	}
	return out
}

// Config tunes the algorithm.
type Config struct {
	// K is the number of clusters (the paper uses 10).
	K int
	// MaxIterations bounds refinement (default 50).
	MaxIterations int
	// Seed drives the initial medoid selection.
	Seed int64
	// Workers bounds the parallel distance precompute in KMedoids
	// (default runtime.GOMAXPROCS); KMedoidsMatrix ignores it.
	Workers int
	// Rand, when non-nil, supplies the seeded stream for the initial
	// medoid selection instead of a fresh NewRNG(Seed). The caller must
	// Reseed it to the intended seed first; a reseeded stream reproduces
	// NewRNG bit for bit, so results are unchanged — the knob only lets
	// repeated clustering (the serving pipeline's periodic compaction)
	// reuse one stream without allocating.
	Rand *sim.RNG
}

// KMedoids clusters n items under dist. All n·(n−1)/2 pairwise distances
// are precomputed in parallel through the distance engine (dist must
// therefore be concurrency-safe; see DistFunc), then the iteration reads
// the matrix. Callers clustering several measures over one population
// should build the matrices themselves and use KMedoidsMatrix to share
// them with other analyses.
func KMedoids(n int, dist DistFunc, cfg Config) *Result {
	m := distance.NewMatrix(n, distance.PairFunc(dist), distance.MatrixOptions{Workers: cfg.Workers})
	return KMedoidsMatrix(m, cfg)
}

// KMedoidsMatrix clusters the population of a precomputed pairwise
// distance matrix. The result is deterministic for a given matrix and
// seed. It is copied out of its scratch, so holding it keeps neither the
// scratch nor the matrix alive.
func KMedoidsMatrix(dm *distance.Matrix, cfg Config) *Result {
	var sc Scratch
	res := *sc.KMedoids(dm, cfg)
	return &res
}

// Scratch holds the working storage for repeated k-medoids runs. A zero
// Scratch is ready to use; reusing one across runs over same-or-smaller
// populations reaches an allocation-free steady state (the serving
// pipeline reclusters its signature window every compaction interval).
// The returned Result aliases scratch storage and is valid until the next
// KMedoids call on the same scratch.
type Scratch struct {
	res     Result
	members []int       // items grouped by cluster, ascending within each
	offs    []int       // cluster c's group is members[offs[c]:offs[c+1]]
	cursor  []int       // per-cluster write positions while grouping
	rows    [][]float64 // rows[i] is dm.Row(i)
	near    []float64   // seeding: each item's distance to its nearest medoid
	isMed   []bool      // isMed[i] reports whether item i is a current medoid
}

// Reserve grows the scratch for runs over up to n items in up to k
// clusters, so that such runs allocate nothing. It invalidates the Result
// of an earlier run.
func (sc *Scratch) Reserve(n, k int) {
	sc.rows = grow(sc.rows, n)
	sc.res.Medoids = grow(sc.res.Medoids, k)
	sc.res.Assign = grow(sc.res.Assign, n)
	sc.members = grow(sc.members, n)
	sc.offs = grow(sc.offs, k+1)
	sc.cursor = grow(sc.cursor, k)
	sc.near = grow(sc.near, n)
	sc.isMed = grow(sc.isMed, n)
}

// abandonEvery is how many members the medoid update adds to a
// candidate's sum between checks of its bound.
const abandonEvery = 16

// KMedoids is KMedoidsMatrix running in pooled storage. Results are bit
// identical to KMedoidsMatrix for the same matrix and config: the
// iteration visits candidates in the same order (the member grouping is a
// counting sort, which preserves ascending item order — exactly the order
// Result.Members yields).
func (sc *Scratch) KMedoids(dm *distance.Matrix, cfg Config) *Result {
	if cfg.K <= 0 {
		panic("cluster: K must be positive")
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 50
	}
	n := dm.N()
	k := min(cfg.K, n)
	sc.Reserve(n, k)
	// Distances are read through row views of the triangle: at(i, j) is
	// dm.At(i, j) without recomputing the row offset on every read, and the
	// update step hoists the candidate's row.
	nonNeg := true
	for i := range sc.rows {
		sc.rows[i] = dm.Row(i)
		nonNeg = nonNeg && !hasNegative(sc.rows[i])
	}

	// Initialization: greedy k-means++-style spread using a seeded stream —
	// the first medoid is random; each next maximizes distance to chosen.
	// near[i] is item i's distance to its nearest chosen medoid, folded in
	// one medoid at a time: the same < comparisons, in the same order, as
	// rescanning every chosen medoid, so NaN and ties resolve identically.
	g := cfg.Rand
	if g == nil {
		g = sim.NewRNG(cfg.Seed)
	}
	near, isMed := sc.near, sc.isMed
	for i := range near {
		near[i], isMed[i] = math.Inf(1), false
	}
	medoids := sc.res.Medoids[:0]
	if n > 0 {
		m := g.Intn(n)
		medoids, isMed[m] = append(medoids, m), true
	}
	for len(medoids) < k {
		last := medoids[len(medoids)-1]
		best, bestD := -1, -1.0
		for i := 0; i < n; i++ {
			if isMed[i] {
				continue
			}
			if v := sc.at(i, last); v < near[i] {
				near[i] = v
			}
			if near[i] > bestD {
				best, bestD = i, near[i]
			}
		}
		if best < 0 {
			break
		}
		medoids, isMed[best] = append(medoids, best), true
	}

	assign := sc.res.Assign
	clear(assign)
	res := &sc.res
	res.Medoids, res.Iterations = medoids, 0
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		res.Iterations = iter + 1
		// Assignment step.
		changed := false
		for i := 0; i < n; i++ {
			best, bestD := assign[i], math.Inf(1)
			for c, m := range medoids {
				if d := sc.at(i, m); d < bestD {
					best, bestD = c, d
				}
			}
			if best != assign[i] {
				assign[i] = best
				changed = true
			}
		}
		if iter > 0 && !changed {
			break
		}
		// Group items by cluster once per iteration (counting sort keeps
		// each group in ascending item order, matching Result.Members).
		// Assignments are fixed for the whole update step, so one grouping
		// serves every cluster.
		clear(sc.offs[:k+1])
		for _, a := range assign {
			sc.offs[a+1]++
		}
		for c := 1; c <= k; c++ {
			sc.offs[c] += sc.offs[c-1]
		}
		copy(sc.cursor, sc.offs[:k])
		for i, a := range assign {
			sc.members[sc.cursor[a]] = i
			sc.cursor[a]++
		}
		// Update step: each cluster's medoid becomes the member minimizing
		// the sum of distances to all other members. An emptied cluster is
		// re-seeded from the item farthest from its assigned medoid, so no
		// cluster keeps a stale medoid (which another cluster could
		// otherwise duplicate under distance ties).
		moved := false
		for c := range medoids {
			members := sc.members[sc.offs[c]:sc.offs[c+1]]
			if len(members) == 0 {
				if far := sc.farthestNonMedoid(medoids, assign); far >= 0 && far != medoids[c] {
					isMed[medoids[c]], isMed[far] = false, true
					medoids[c] = far
					moved = true
				}
				continue
			}
			best, bestSum := medoids[c], math.Inf(1)
			for ci, cand := range members {
				// Never adopt another cluster's medoid (reachable only
				// under exact distance ties): medoid indices stay unique.
				if cand != medoids[c] && isMed[cand] {
					continue
				}
				// With no negative cell a candidate whose partial sum
				// reaches bestSum cannot end strictly below it, so its
				// sum may stop there. A +Inf partial sum ends +Inf or
				// NaN whatever the signs, so +Inf is always a safe bound.
				bound := math.Inf(1)
				if nonNeg {
					bound = bestSum
				}
				if sum := sc.memberSum(members, ci, bound); sum < bestSum {
					best, bestSum = cand, sum
				}
			}
			if best != medoids[c] {
				isMed[medoids[c]], isMed[best] = false, true
				medoids[c] = best
				moved = true
			}
		}
		if !moved && !changed {
			break
		}
	}
	return res
}

// memberSum returns the sum of distances from cand = members[ci] to every
// other member, or, once a partial sum reaches bound, that partial sum
// (then ≥ bound). Members ascend, so the earlier ones sit in their own rows
// and the later ones in cand's row. cand's own diagonal term is +0, which
// leaves the sum unchanged: the sum starts at +0 and a round-to-nearest
// sum is −0 only when both addends are.
func (sc *Scratch) memberSum(members []int, ci int, bound float64) float64 {
	cand := members[ci]
	var sum float64
	for lo := 0; lo < ci; lo += abandonEvery {
		for _, other := range members[lo:min(lo+abandonEvery, ci)] {
			sum += sc.rows[other][cand-other-1]
		}
		if sum >= bound {
			return sum
		}
	}
	row := sc.rows[cand]
	for lo := ci + 1; lo < len(members); lo += abandonEvery {
		for _, other := range members[lo:min(lo+abandonEvery, len(members))] {
			sum += row[other-cand-1]
		}
		if sum >= bound {
			return sum
		}
	}
	return sum
}

// hasNegative reports whether any cell is below zero (NaN is not).
func hasNegative(cells []float64) bool {
	for _, v := range cells {
		if v < 0 {
			return true
		}
	}
	return false
}

// grow returns s resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// farthestNonMedoid returns the item with the greatest distance to its
// assigned medoid, excluding current medoids (ties to the lowest index),
// or -1 when every item is a medoid.
func (sc *Scratch) farthestNonMedoid(medoids, assign []int) int {
	best, bestD := -1, -1.0
	for i := range sc.rows {
		if sc.isMed[i] {
			continue
		}
		if d := sc.at(i, medoids[assign[i]]); d > bestD {
			best, bestD = i, d
		}
	}
	return best
}

// at returns the distance between items i and j, as dm.At does.
func (sc *Scratch) at(i, j int) float64 {
	if i < j {
		return sc.rows[i][j-i-1]
	}
	if i > j {
		return sc.rows[j][i-j-1]
	}
	return 0
}

// Divergence measures classification quality the paper's way (Figure 7):
// each request's divergence from its cluster centroid on some request
// property (CPU time, peak CPI, …), |v_r − v_c| / v_c, averaged over all
// requests. prop[i] is the property value of item i.
func Divergence(res *Result, prop []float64) float64 {
	if len(prop) != len(res.Assign) {
		panic("cluster: Divergence property length mismatch")
	}
	var sum float64
	var n int
	for i, c := range res.Assign {
		cv := prop[res.Medoids[c]]
		if cv == 0 {
			continue
		}
		sum += math.Abs(prop[i]-cv) / cv
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
