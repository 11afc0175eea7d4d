// Package signature implements Section 4.4: online request identification
// from partial variation patterns. The system maintains a bank of
// representative request signatures — the paper uses the variation pattern
// of L2 references per instruction, a metric reflecting inherent request
// behavior free of dynamic shared-L2 contention effects — and matches an
// in-flight request's partial pattern against the bank to predict request
// properties (CPU consumption above or below a threshold) well before the
// request completes. Online matching uses the L1 distance for its low cost.
package signature

import (
	"math"

	"repro/internal/distance"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// Entry is one representative signature in the bank.
type Entry struct {
	// Pattern is the signature metric's variation pattern, in fixed
	// instruction buckets.
	Pattern []float64
	// Average is the whole-request average of the signature metric, for
	// the average-value baseline.
	Average float64
	// CPUTimeNs is the source request's CPU consumption — the property
	// being predicted.
	CPUTimeNs float64
	// Type records the source request type (diagnostics only).
	Type string
}

// Bank is a signature bank for one application.
type Bank struct {
	// Metric is the signature metric (the paper: L2 references per
	// instruction).
	Metric metrics.Metric
	// BucketIns is the resampling bucket in instructions.
	BucketIns float64
	// Entries are the representative signatures.
	Entries []Entry
	// ThresholdNs is the CPU-usage prediction threshold (the paper: the
	// workload's median request CPU usage).
	ThresholdNs float64
}

// Build constructs a bank from representative traces (the paper collects
// 500 per application) and sets the prediction threshold to the median CPU
// usage of those traces. An empty trace slice yields an empty bank with a
// zero threshold (which predicts low usage for everything) rather than
// feeding zero CPU samples into the median.
func Build(traces []*trace.Request, m metrics.Metric, bucketIns float64, maxEntries int) *Bank {
	b := &Bank{Metric: m, BucketIns: bucketIns}
	if len(traces) == 0 {
		return b
	}
	n := len(traces)
	if maxEntries > 0 && n > maxEntries {
		n = maxEntries
	}
	var cpus []float64
	for _, tr := range traces[:n] {
		pattern := tr.Resampled(m, bucketIns)
		s := tr.Series(m, timeseries.Instructions)
		b.Entries = append(b.Entries, Entry{
			Pattern:   pattern,
			Average:   s.WeightedMean(),
			CPUTimeNs: float64(tr.CPUTime()),
			Type:      tr.Type,
		})
		cpus = append(cpus, float64(tr.CPUTime()))
	}
	b.ThresholdNs = stats.Median(cpus)
	return b
}

// prefixL1 compares a partial pattern against an entry's leading buckets:
// plain L1 over the overlap; an entry shorter than the prefix pays the
// missing buckets at the prefix's own values (it cannot explain them).
func prefixL1(prefix, entry []float64) float64 {
	n := len(prefix)
	if len(entry) < n {
		n = len(entry)
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Abs(prefix[i] - entry[i])
	}
	for i := n; i < len(prefix); i++ {
		sum += math.Abs(prefix[i])
	}
	return sum
}

// PatternDistance is the bank's matching distance as an exported measure:
// prefix-L1 of a against b, the L1 distance over their overlap plus a's
// unexplained tail charged at its own values. It is not symmetric: only
// the first argument's tail is charged, so d([1,2],[1,2,3]) = 0 while
// d([1,2,3],[1,2]) = 3. It doubles as the pairwise distance for online
// bank compaction (the streaming pipeline clusters window patterns under
// the same metric identification uses), where the older pattern goes
// first; see PatternMatrix.
func PatternDistance(a, b []float64) float64 {
	return prefixL1(a, b)
}

// PatternMatrix fills pairwise PatternDistance matrices. prefixL1(a, b)
// equals Σ_{t<len(a)} |a[t] − b̃[t]| with b̃ the zero-padded b, term by
// term in the same order, because x − 0 is exactly x for every float
// (−0 and ±Inf included; NaN stays NaN). So the patterns are written into a
// transposed, zero-padded column store, and each matrix row is one sweep:
// for each bucket t of pattern i, every cell (i, j>i) adds
// |pats[i][t] − column_t[j]|. Every cell keeps its own summation order,
// so the matrix is bit-identical to a pair-at-a-time fill (up to NaN
// payloads); each row's loops have one trip count and make no calls.
// Window patterns are a few dozen buckets at most, which makes the
// per-pair call and loop exits, not the additions, the pairwise fill's
// cost. Cells are independent, so on amd64 CPUs with AVX2 a row's sweep
// runs four cells per vector instruction (fillPatternRow), every lane
// adding the same terms in the same order as the Go loop.
//
// A zero PatternMatrix is ready to use; NewPatternMatrix sizes the column
// store so that fills within its bounds allocate nothing.
type PatternMatrix struct {
	cols []float64 // cols[t·n+j] is bucket t of pattern j, 0 past its end
}

// NewPatternMatrix returns a PatternMatrix whose column store holds n
// patterns of up to maxLen buckets without growing.
func NewPatternMatrix(n, maxLen int) *PatternMatrix {
	return &PatternMatrix{cols: make([]float64, 0, n*maxLen)}
}

// Fill sets dm to the pairwise matrix of pats, cell (i < j) being
// PatternDistance(pats[i], pats[j]): the lower index is the first
// argument. The fill is serial.
func (pm *PatternMatrix) Fill(dm *distance.Matrix, pats [][]float64) {
	n := len(pats)
	cols, _ := transpose(pm.cols, n, func(j int) []float64 { return pats[j] })
	pm.cols = cols
	dm.FillRows(n, func(i int, cells []float64) { fillPatternRow(cells, pats[i], cols, n, i) })
}

// transpose writes n patterns into a zero-padded column store,
// cols[t·n+j] being bucket t of pattern(j) and 0 past its end, and returns
// the store with its width, the longest pattern's length. The store reuses
// cols' backing array when it fits.
func transpose(cols []float64, n int, pattern func(j int) []float64) ([]float64, int) {
	width := 0
	for j := 0; j < n; j++ {
		width = max(width, len(pattern(j)))
	}
	if need := n * width; cap(cols) >= need {
		cols = cols[:need]
	} else {
		cols = make([]float64, need)
	}
	clear(cols)
	for j := 0; j < n; j++ {
		for t, x := range pattern(j) {
			cols[t*n+j] = x
		}
	}
	return cols, width
}

// fillPatternRow sweeps row i of an n-pattern column store: cells[k]
// accumulates |a[t] − column_t[i+1+k]| over t in order, which is
// PatternDistance(a, pats[i+1+k]) for a = pats[i]. Where useAVX2 is set,
// the AVX2 kernel sweeps the leading multiple of four cells, one YMM
// register per four, and sweepRow the rest; elsewhere sweepRow takes the
// whole row. Both add the same terms in the same order, so the cells are
// bit-identical either way.
func fillPatternRow(cells, a, cols []float64, n, i int) {
	clear(cells)
	if useAVX2 {
		m4 := sweepRowAVX2(cells, a, cols, n, i)
		cells, i = cells[m4:], i+m4
	}
	sweepRow(cells, a, cols, n, i)
}

// sweepRow is fillPatternRow's Go sweep over zeroed cells. Four buckets
// go per pass, each cell's partial sum held in a register across them, so
// a pass loads and stores every cell once; single-bucket passes finish
// the pattern.
func sweepRow(cells, a, cols []float64, n, i int) {
	m := len(cells)
	t := 0
	for ; t+4 <= len(a); t += 4 {
		x0, x1, x2, x3 := a[t], a[t+1], a[t+2], a[t+3]
		c0 := cols[t*n+i+1:][:m]
		c1 := cols[(t+1)*n+i+1:][:m]
		c2 := cols[(t+2)*n+i+1:][:m]
		c3 := cols[(t+3)*n+i+1:][:m]
		for k := range cells {
			s := cells[k]
			s += math.Abs(x0 - c0[k])
			s += math.Abs(x1 - c1[k])
			s += math.Abs(x2 - c2[k])
			s += math.Abs(x3 - c3[k])
			cells[k] = s
		}
	}
	for ; t < len(a); t++ {
		x, col := a[t], cols[t*n+i+1:][:m]
		for k := range cells {
			cells[k] += math.Abs(x - col[k])
		}
	}
}

// Columns is a bank's patterns in PatternMatrix's zero-padded column
// layout, read one bucket row at a time across every entry. It serves
// both streaming shapes: Identify scores a whole prefix (the serving
// engine's match reads, calibration and sampled scoring), and a Matcher's
// Sessions add one row per arriving bucket. Serving banks are a few dozen
// entries of a few dozen buckets, so what bounds an entry-at-a-time scan
// is each entry's serial add chain; Identify instead keeps four entries'
// sums in registers across every bucket, four independent chains per
// sweep. Each entry still adds its own terms in PatternDistance's order
// (x − 0 is exactly x, see PatternMatrix), so index and distance are
// bit-identical to Bank.IdentifyPatternScored. The store is written only
// by Set; readers only read it, so concurrent reads are safe between Sets.
type Columns struct {
	cols  []float64 // cols[t·n+e] is bucket t of entry e, 0 past its end
	n     int       // entries
	width int       // the longest entry's length
}

// NewColumns returns a Columns whose store holds n entries of up to
// maxLen buckets without growing.
func NewColumns(n, maxLen int) *Columns {
	return &Columns{cols: make([]float64, 0, n*maxLen)}
}

// Set replaces the store's contents with entries' patterns, reusing the
// backing array when it fits.
func (c *Columns) Set(entries []Entry) {
	c.n = len(entries)
	c.cols, c.width = transpose(c.cols, c.n, func(e int) []float64 { return entries[e].Pattern })
}

// Identify returns the index of the entry whose leading buckets best
// match prefix and its PatternDistance (-1 and +Inf for an empty store),
// keeping the first strict minimum.
func (c *Columns) Identify(prefix []float64) (int, float64) {
	n, cols := c.n, c.cols
	m := min(len(prefix), c.width)
	head, tail := prefix[:m], prefix[m:]
	best, bestD := -1, math.Inf(1)
	e := 0
	for ; e+4 <= n; e += 4 {
		var s0, s1, s2, s3 float64
		for t, x := range head {
			k := t*n + e
			r := cols[k : k+4 : k+4]
			s0 += math.Abs(x - r[0])
			s1 += math.Abs(x - r[1])
			s2 += math.Abs(x - r[2])
			s3 += math.Abs(x - r[3])
		}
		for _, x := range tail {
			a := math.Abs(x)
			s0 += a
			s1 += a
			s2 += a
			s3 += a
		}
		if s0 < bestD {
			best, bestD = e, s0
		}
		if s1 < bestD {
			best, bestD = e+1, s1
		}
		if s2 < bestD {
			best, bestD = e+2, s2
		}
		if s3 < bestD {
			best, bestD = e+3, s3
		}
	}
	for ; e < n; e++ {
		var s float64
		for t, x := range head {
			s += math.Abs(x - cols[t*n+e])
		}
		for _, x := range tail {
			s += math.Abs(x)
		}
		if s < bestD {
			best, bestD = e, s
		}
	}
	return best, bestD
}

// IdentifyPattern returns the bank index whose signature's leading portion
// best matches the partial variation pattern (smallest L1 distance), or -1
// for an empty bank.
func (b *Bank) IdentifyPattern(prefix []float64) int {
	best, _ := b.IdentifyPatternScored(prefix)
	return best
}

// IdentifyPatternScored is IdentifyPattern returning the winning distance
// too (+Inf for an empty bank): the reference scan, one PatternDistance per
// entry in bank order, keeping the first strict minimum. Columns.Identify
// returns the same index and bitwise the same distance, and Session.Best
// the same index.
func (b *Bank) IdentifyPatternScored(prefix []float64) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i := range b.Entries {
		if d := prefixL1(prefix, b.Entries[i].Pattern); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// IdentifyAverage returns the bank index whose whole-request average
// metric value is closest to the partial execution's average — the paper's
// earlier average-value signatures.
func (b *Bank) IdentifyAverage(prefixAverage float64) int {
	best, bestD := -1, math.Inf(1)
	for i := range b.Entries {
		if d := math.Abs(prefixAverage - b.Entries[i].Average); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// HighUsage reports whether bank entry i predicts above-threshold CPU
// consumption (false for i < 0, the no-match case).
func (b *Bank) HighUsage(i int) bool {
	if i < 0 {
		return false
	}
	return b.Entries[i].CPUTimeNs > b.ThresholdNs
}

// PredictHighUsage predicts whether an in-flight request's CPU consumption
// will exceed the bank threshold, from its partial variation pattern.
func (b *Bank) PredictHighUsage(prefix []float64) bool {
	return b.HighUsage(b.IdentifyPattern(prefix))
}

// PredictHighUsageByAverage is the average-value-signature baseline.
func (b *Bank) PredictHighUsageByAverage(prefixAverage float64) bool {
	return b.HighUsage(b.IdentifyAverage(prefixAverage))
}

// PastRequests is the conventional transparent baseline: with no online
// information about an incoming request, predict its CPU usage as the
// average consumption of recent past requests. The window is a fixed ring
// buffer with a running sum, so Observe and PredictHigh are both O(1).
type PastRequests struct {
	ring  []float64
	head  int // next write position (the oldest observation once full)
	count int
	sum   float64
}

// NewPastRequests returns a predictor over the last size completions (the
// paper uses 10). A non-positive size always predicts low usage.
func NewPastRequests(size int) *PastRequests {
	if size < 0 {
		size = 0
	}
	return &PastRequests{ring: make([]float64, size)}
}

// Observe records a completed request's CPU time, evicting the oldest
// observation once the window is full.
func (p *PastRequests) Observe(cpuNs float64) {
	if len(p.ring) == 0 {
		return
	}
	if p.count == len(p.ring) {
		p.sum -= p.ring[p.head]
	} else {
		p.count++
	}
	p.ring[p.head] = cpuNs
	p.sum += cpuNs
	if p.head++; p.head == len(p.ring) {
		p.head = 0
	}
}

// PredictHigh predicts whether the next request exceeds the threshold.
func (p *PastRequests) PredictHigh(thresholdNs float64) bool {
	if p.count == 0 {
		return false
	}
	return p.sum/float64(p.count) > thresholdNs
}
