// Pairwise-distance engine: every downstream analysis (k-medoids
// classification, anomaly detection, the Figure 6–8 experiments) funnels
// through O(n²) request differencing with an O(m·n) measure per pair. The
// engine precomputes the full symmetric matrix once, in parallel, into
// triangular storage, so the analyses read distances instead of computing
// them — and so one population's matrix can be shared across analyses.
//
// Determinism: parallelism only changes when a cell is computed, never
// what. Each cell is written exactly once, by the worker that claimed its
// row block, with no reads of other cells; for a pure pair function the
// resulting matrix is bit-identical to a serial fill.
package distance

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// PairFunc returns the dissimilarity between items i and j (i < j) of the
// population. It must be symmetric in effect and, because the engine calls
// it from multiple goroutines, safe for concurrent use — pure functions
// over read-only inputs qualify.
type PairFunc func(i, j int) float64

// Matrix is a precomputed symmetric pairwise-distance matrix with a zero
// diagonal. Only the strict upper triangle is stored (n·(n−1)/2 values,
// half the footprint of a square layout). Matrices are immutable after
// construction and safe for concurrent readers.
type Matrix struct {
	n    int
	vals []float64
}

// MatrixOptions tunes the parallel fill.
type MatrixOptions struct {
	// Workers is the fill pool size; ≤0 means runtime.GOMAXPROCS(0).
	// Workers == 1 fills serially on the calling goroutine.
	Workers int
	// RowBlock is the number of consecutive rows a worker claims at a
	// time; ≤0 picks a size that spreads the triangle's uneven row costs
	// (row i holds n−1−i cells) across the pool.
	RowBlock int
	// Obs, when non-nil, records fill activity into the observability
	// collector: total cells, cells per worker, and the pool size. The
	// counters are resolved once per fill — never inside the pair loop —
	// so an attached collector adds no per-cell work.
	Obs *obs.Collector
}

// NewMatrix computes all pairwise distances for an n-item population under
// pair. Rows are claimed in blocks by a bounded worker pool; see PairFunc
// for the concurrency contract.
func NewMatrix(n int, pair PairFunc, opt MatrixOptions) *Matrix {
	m := &Matrix{}
	m.Fill(n, pair, opt)
	return m
}

// Fill recomputes the matrix in place for an n-item population under pair,
// reusing the triangular storage when it is large enough — repeated fills
// over same-or-smaller populations allocate nothing, which is what lets
// the streaming pipeline recompact its signature window every interval
// without garbage. The immutability contract applies between fills: the
// caller must guarantee no concurrent readers while Fill runs. Every cell
// is written (cells are never carried over from a previous fill), so the
// result is identical to a fresh NewMatrix.
func (m *Matrix) Fill(n int, pair PairFunc, opt MatrixOptions) {
	if !m.resize(n) {
		return
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n-1 {
		workers = n - 1
	}
	if opt.Obs != nil {
		opt.Obs.Counter("distance.matrix.fills").Add(1)
		opt.Obs.Gauge("distance.matrix.workers").Set(float64(workers))
	}
	// The serial path stays free of the pool's closures (closures captured
	// by worker goroutines escape to the heap even when the pool never
	// spawns), so a single-worker refill into grown storage allocates
	// nothing — the streaming pipeline's compaction case.
	if workers <= 1 {
		for i := 0; i < n-1; i++ {
			m.fillRow(i, pair)
		}
		m.cellsDone(opt.Obs, 0, uint64(len(m.vals)))
		return
	}
	block := opt.RowBlock
	if block <= 0 {
		// Several blocks per worker so late rows (cheap) and early rows
		// (expensive) average out.
		block = (n - 1) / (workers * 8)
		if block < 1 {
			block = 1
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var cells uint64
			for {
				lo := int(next.Add(int64(block))) - block
				if lo >= n-1 {
					m.cellsDone(opt.Obs, worker, cells)
					return
				}
				hi := lo + block
				if hi > n-1 {
					hi = n - 1
				}
				for i := lo; i < hi; i++ {
					m.fillRow(i, pair)
					cells += uint64(n - 1 - i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// FillRows is Fill's serial row-at-a-time form, for kernels that compute a
// whole row at once instead of one pair per call: row(i, cells) must set
// cells[k] to the distance between items i and i+1+k, for every k. cells
// arrives holding whatever the storage last held. Storage is reused as in
// Fill, so a refill over a same-or-smaller population allocates nothing.
func (m *Matrix) FillRows(n int, row func(i int, cells []float64)) {
	if !m.resize(n) {
		return
	}
	for i := 0; i < n-1; i++ {
		row(i, m.Row(i))
	}
}

// Reserve grows the triangular storage's capacity to an n-item
// population, keeping its cells, so that fills of up to n items allocate
// nothing.
func (m *Matrix) Reserve(n int) {
	if need := n * (n - 1) / 2; need > len(m.vals) {
		m.vals = slices.Grow(m.vals, need-len(m.vals))
	}
}

// resize sets the population to n and the triangular storage to n·(n−1)/2
// cells, growing it only when its capacity is short, and reports whether
// there is any cell to fill.
func (m *Matrix) resize(n int) bool {
	m.n = n
	m.vals = m.vals[:0]
	if n < 2 {
		return false
	}
	if need := n * (n - 1) / 2; cap(m.vals) >= need {
		m.vals = m.vals[:need]
	} else {
		m.vals = make([]float64, need)
	}
	return true
}

// Row returns row i's strict-upper-triangle cells: Row(i)[k] is the
// distance between items i and i+1+k. The slice aliases the matrix and
// must not be written.
func (m *Matrix) Row(i int) []float64 {
	base := m.tri(i, i+1)
	return m.vals[base : base+m.n-1-i : base+m.n-1-i]
}

// fillRow computes row i's strict-upper-triangle cells.
func (m *Matrix) fillRow(i int, pair PairFunc) {
	base := m.tri(i, i+1)
	for j := i + 1; j < m.n; j++ {
		m.vals[base+j-i-1] = pair(i, j)
	}
}

// cellsDone reports one worker's fill contribution: the shared total plus
// a per-worker counter ("matrix cells filled per worker").
func (m *Matrix) cellsDone(c *obs.Collector, worker int, cells uint64) {
	if c == nil || cells == 0 {
		return
	}
	c.Counter("distance.matrix.cells").Add(cells)
	c.Counter(fmt.Sprintf("distance.matrix.cells.worker%02d", worker)).Add(cells)
}

// NewMatrixFromSequences computes the pairwise matrix of a request
// population's resampled metric sequences under measure d. Measures whose
// Distance is pure (all in this package) satisfy the concurrency contract;
// DTW additionally reuses pooled scratch rows so the fill's inner loop
// allocates nothing.
func NewMatrixFromSequences(seqs [][]float64, d Measure, opt MatrixOptions) *Matrix {
	return NewMatrix(len(seqs), func(i, j int) float64 {
		return d.Distance(seqs[i], seqs[j])
	}, opt)
}

// N returns the population size.
func (m *Matrix) N() int { return m.n }

// At returns the distance between items i and j (0 when i == j).
func (m *Matrix) At(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return m.vals[m.tri(i, j)]
}

// tri maps upper-triangle coordinates (i < j) to flat storage.
func (m *Matrix) tri(i, j int) int {
	return i*(2*m.n-i-1)/2 + j - i - 1
}

// RowSum returns the summed distance from item i to every other item — the
// centroid-selection quantity of Sections 4.2 and 4.3.
func (m *Matrix) RowSum(i int) float64 {
	var s float64
	for j := 0; j < m.n; j++ {
		s += m.At(i, j)
	}
	return s
}

// Medoid returns the index minimizing RowSum (ties to the lowest index),
// or -1 for an empty matrix.
func (m *Matrix) Medoid() int {
	best := -1
	var bestSum float64
	for i := 0; i < m.n; i++ {
		if s := m.RowSum(i); best < 0 || s < bestSum {
			best, bestSum = i, s
		}
	}
	return best
}
