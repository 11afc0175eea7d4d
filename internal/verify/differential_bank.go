package verify

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/distance"
	"repro/internal/signature"
	"repro/internal/sim"
)

// The bank-compaction differentials: the column-sweep pattern matrix
// against pair-at-a-time PatternDistance, and the row-view k-medoids loop
// against the interface-dispatched loop it replaced. Together they cover
// every matrix cell and medoid a serving compaction computes.

// randPatternValue draws one pattern bucket. specials is the chance, in
// 1/64ths, of a value the kernel's exactness argument must hold for beyond
// ordinary refs/ins: −0, +0, ±Inf and NaN; the rest are signed.
func randPatternValue(r *rand.Rand, specials int) float64 {
	if r.Intn(64) < specials {
		switch r.Intn(5) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		case 2:
			return math.Inf(1)
		case 3:
			return math.Inf(-1)
		default:
			return math.NaN()
		}
	}
	v := 8*r.Float64() - 2
	if r.Intn(8) == 0 {
		v *= 10
	}
	return v
}

// checkPatternMatrix: every cell (i < j) of a PatternMatrix fill must be
// PatternDistance(pats[i], pats[j]) bit for bit (NaN payloads aside). The
// populations have 0–8 patterns, whose rows hold 0–7 cells, then one of
// 12–40; the first eight patterns are 0–7 buckets long, so every
// remainder of the kernel's four-bucket passes shows up as a row pattern,
// and the rest reach 40. One PatternMatrix and one distance.Matrix serve
// every population, so stale columns and cells from a larger fill must
// not leak into a smaller one.
func checkPatternMatrix(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	specials := []int{0, 2, 6}[r.Intn(3)]
	var pm signature.PatternMatrix
	var dm distance.Matrix
	for _, n := range []int{12 + r.Intn(29), 0, 1, 2, 3, 4, 5, 6, 7, 8} {
		pats := make([][]float64, n)
		for i := range pats {
			l := i
			if i >= 8 {
				l = r.Intn(41)
			}
			pats[i] = make([]float64, l)
			for t := range pats[i] {
				pats[i][t] = randPatternValue(r, specials)
			}
		}
		r.Shuffle(n, func(i, j int) { pats[i], pats[j] = pats[j], pats[i] })
		pm.Fill(&dm, pats)
		if dm.N() != n {
			return fmt.Errorf("population %d: matrix holds %d items", n, dm.N())
		}
		for i := range pats {
			for j := i + 1; j < n; j++ {
				got, want := dm.At(i, j), signature.PatternDistance(pats[i], pats[j])
				if !sameFloat(got, want) {
					return fmt.Errorf("population %d, cell (%d,%d) len (%d,%d): column sweep %v, pairwise %v",
						n, i, j, len(pats[i]), len(pats[j]), got, want)
				}
			}
		}
	}
	return nil
}

// checkKMedoids: cluster's k-medoids over *distance.Matrix must choose the
// same medoids and assignments in the same number of iterations as
// referenceKMedoids, on continuous distances, on small integers (exact
// ties everywhere), on tenths (sums that tie exactly in one summation
// order and not in another, so a reordered sum picks another medoid), on
// distances with negative cells (a DTW matrix under a negative penalty,
// where a partial sum may fall again and the update must not stop early),
// and with the odd NaN or ±Inf cell. One Scratch serves populations of
// shrinking and growing size; the last two trials draw 100–200 items into
// at most six clusters, so clusters run far past the update's 16-member
// early-abandon stride.
func checkKMedoids(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	var sc cluster.Scratch
	for trial := 0; trial < 8; trial++ {
		n, maxK := 1+r.Intn(60), 12
		if trial >= 6 {
			n, maxK = 100+r.Intn(101), 6
		}
		kind, odd := r.Intn(4), r.Intn(4) == 0
		specials := []float64{math.NaN(), math.Inf(1)}
		if kind == 3 {
			specials = append(specials, math.Inf(-1))
		}
		vals := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := 10 * r.Float64()
				switch kind {
				case 1:
					v = float64(r.Intn(6))
				case 2:
					v = float64(1+r.Intn(9)) / 10
				case 3:
					v -= 2
				}
				if odd && r.Intn(40) == 0 {
					v = specials[r.Intn(len(specials))]
				}
				vals[i*n+j] = v
			}
		}
		dm := distance.NewMatrix(n, func(i, j int) float64 { return vals[i*n+j] },
			distance.MatrixOptions{Workers: 1})
		cfg := cluster.Config{K: 1 + r.Intn(min(n, maxK)), Seed: r.Int63(), MaxIterations: r.Intn(4)}
		want := referenceKMedoids(dm, cfg)
		for _, got := range []*cluster.Result{cluster.KMedoidsMatrix(dm, cfg), sc.KMedoids(dm, cfg)} {
			if err := sameClustering(got, want); err != nil {
				return fmt.Errorf("trial %d (n=%d, k=%d, kind %d): %v", trial, n, cfg.K, kind, err)
			}
		}
	}
	return nil
}

func sameClustering(got, want *cluster.Result) error {
	if got.Iterations != want.Iterations {
		return fmt.Errorf("%d iterations, reference %d", got.Iterations, want.Iterations)
	}
	if fmt.Sprint(got.Medoids) != fmt.Sprint(want.Medoids) {
		return fmt.Errorf("medoids %v, reference %v", got.Medoids, want.Medoids)
	}
	if fmt.Sprint(got.Assign) != fmt.Sprint(want.Assign) {
		return fmt.Errorf("assignments %v, reference %v", got.Assign, want.Assign)
	}
	return nil
}

// referenceKMedoids is the k-medoids loop as it read every distance
// through dm.At, before the row views: greedy spread initialization,
// assignment, then per-cluster medoid update over the members in ascending
// order, with an emptied cluster re-seeded from the farthest non-medoid.
func referenceKMedoids(dm *distance.Matrix, cfg cluster.Config) *cluster.Result {
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 50
	}
	n, k := dm.N(), min(cfg.K, dm.N())
	g := sim.NewRNG(cfg.Seed)
	var medoids []int
	if n > 0 {
		medoids = append(medoids, g.Intn(n))
	}
	for len(medoids) < k {
		best, bestD := -1, -1.0
		for i := 0; i < n; i++ {
			if containsInt(medoids, i) {
				continue
			}
			d := math.Inf(1)
			for _, m := range medoids {
				if v := dm.At(i, m); v < d {
					d = v
				}
			}
			if d > bestD {
				best, bestD = i, d
			}
		}
		if best < 0 {
			break
		}
		medoids = append(medoids, best)
	}
	res := &cluster.Result{Medoids: medoids, Assign: make([]int, n)}
	assign := res.Assign
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		res.Iterations = iter + 1
		changed := false
		for i := 0; i < n; i++ {
			best, bestD := assign[i], math.Inf(1)
			for c, m := range medoids {
				if d := dm.At(i, m); d < bestD {
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
		moved := false
		for c := range medoids {
			members := res.Members(c)
			if len(members) == 0 {
				far, farD := -1, -1.0
				for i := 0; i < n; i++ {
					if containsInt(medoids, i) {
						continue
					}
					if d := dm.At(i, medoids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				if far >= 0 && far != medoids[c] {
					medoids[c] = far
					moved = true
				}
				continue
			}
			best, bestSum := medoids[c], math.Inf(1)
			for _, cand := range members {
				if cand != medoids[c] && containsInt(medoids, cand) {
					continue
				}
				var sum float64
				for _, other := range members {
					sum += dm.At(cand, other)
				}
				if sum < bestSum {
					best, bestSum = cand, sum
				}
			}
			if best != medoids[c] {
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

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
