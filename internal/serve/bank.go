// Bank maintenance: the paper's online loop run over a sliding window.
// One bankMaintainer serves the single-node engine and every fleet node.
// It keeps the window ring of recent completions and, every compaction,
// rematerializes the window's patterns once, reclusters them with
// k-medoids over a pooled distance matrix, rebuilds the signature bank
// from the medoids, and recalibrates the anomaly threshold by scoring the
// same materialized patterns against the new bank. The fleet's merge step
// installs a merged bank through the same rebuild.
//
// Every serving scan of the bank (the engine's match reads, calibration,
// the degraded-path template cache and the fleet's sampled scoring) is a
// column sweep over the maintainer's signature.Columns, which the
// constructor and rebuild rewrite. It does not abandon: a serving bank is
// ~16 entries and a serving pattern ~10 buckets, so what bounds a scan is
// each entry's serial add chain, and the sweep overlaps four of them. It
// returns the same index and distance as Bank.IdentifyPatternScored, the
// plain reference scan.
//
// The matrix is filled by signature.PatternMatrix's column sweep, and
// PatternDistance is not symmetric, so the orientation is fixed: cell
// (i < j) is PatternDistance(pats[i], pats[j]), the older record first
// (on a merge, the earlier node's entry first). Everything runs in scratch
// preallocated at the template library's longest pattern, with the
// matrix and k-medoids scratch sized for a full window, so no compaction,
// not even the first, allocates.
package serve

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/anomaly"
	"repro/internal/cluster"
	"repro/internal/distance"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/signature"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// minWindowFill is the smallest window occupancy worth compacting:
// clustering a handful of requests would thrash the bank.
const minWindowFill = 32

// winRec is one completed request in the sliding window — the compact form
// from which compaction rematerializes the full pattern (a pure function
// of these fields and the template library).
type winRec struct {
	app    int32
	tmpl   int32
	cohort int32 // arrival cohort (always 0 on the single-node engine)
	anom   bool
	drift  float64
	cpuNs  float64
}

// bankKnobs are the maintainer's settings, shared by Config and
// FleetConfig under the same field names.
type bankKnobs struct {
	WindowSize, BankK, MaxPatternLen         int
	CalibrationQuantile, CalibrationHeadroom float64
}

// validate names the offending field after prefix ("serve: " or
// "serve: FleetConfig.").
func (k bankKnobs) validate(prefix string) error {
	switch {
	case k.MaxPatternLen <= 0:
		return fmt.Errorf("%sMaxPatternLen must be positive, got %d", prefix, k.MaxPatternLen)
	case k.WindowSize <= 1:
		return fmt.Errorf("%sWindowSize must exceed 1, got %d", prefix, k.WindowSize)
	case k.BankK <= 0:
		return fmt.Errorf("%sBankK must be positive, got %d", prefix, k.BankK)
	case !(k.CalibrationQuantile >= 0 && k.CalibrationQuantile <= 1):
		return fmt.Errorf("%sCalibrationQuantile must be in [0,1], got %v", prefix, k.CalibrationQuantile)
	case !(k.CalibrationHeadroom > 0):
		return fmt.Errorf("%sCalibrationHeadroom must be positive, got %v", prefix, k.CalibrationHeadroom)
	}
	return nil
}

// tickKnobs are the tick, queue, degrade and compaction settings shared by
// Config and FleetConfig under the same field names.
type tickKnobs struct {
	TickNs, CostDegradedNs                                int64
	QueueCap, DegradeDepth, TemplatesPerApp, CompactTicks int
}

// validate names the offending field after prefix, like bankKnobs.validate.
func (k tickKnobs) validate(prefix string) error {
	switch {
	case k.TickNs <= 0:
		return fmt.Errorf("%sTickNs must be positive, got %d", prefix, k.TickNs)
	case k.QueueCap <= 0:
		return fmt.Errorf("%sQueueCap must be positive, got %d", prefix, k.QueueCap)
	case k.DegradeDepth <= 0 || k.DegradeDepth > k.QueueCap:
		return fmt.Errorf("%sDegradeDepth must be in (0, QueueCap], got %d", prefix, k.DegradeDepth)
	case k.CostDegradedNs <= 0:
		return fmt.Errorf("%sCostDegradedNs must be positive, got %d", prefix, k.CostDegradedNs)
	case k.CostDegradedNs > k.TickNs:
		return fmt.Errorf("%sCostDegradedNs (%d) exceeds the tick budget (%d): a degraded request could never complete", prefix, k.CostDegradedNs, k.TickNs)
	case k.TemplatesPerApp <= 0:
		return fmt.Errorf("%sTemplatesPerApp must be positive, got %d", prefix, k.TemplatesPerApp)
	case k.CompactTicks <= 0:
		return fmt.Errorf("%sCompactTicks must be positive, got %d", prefix, k.CompactTicks)
	}
	return nil
}

// bankMaintainer owns one signature bank and the window that feeds it.
// The engine drives it only from its serial phase, while its parallel
// shard phase reads bank and threshold without writing them. The serial
// fleet pushes each completion into the window as it happens.
type bankMaintainer struct {
	knobs bankKnobs
	tmpl  [][]template
	apps  []workload.StreamApp
	// seed is the RNG base: compaction c reseeds k-medoids with seed+c.
	seed int64

	bank *signature.Bank
	// cols is bank's patterns in column layout, the store every serving
	// scan reads. newBankMaintainer and rebuild, the only writers of the
	// bank's entries, rewrite it.
	cols *signature.Columns
	// threshold is the calibrated anomaly threshold on identification
	// scores (+Inf until the first calibration).
	threshold float64

	// Window ring of recent completions.
	win     []winRec
	winLen  int
	winHead int

	// Pooled scratch. pats[0:winLen] holds the rematerialized window
	// patterns (oldest first) with their costs and types; pm fills dm
	// from them.
	pats    [][]float64
	cpuOf   []float64
	typeOf  []string
	dm      distance.Matrix
	pm      *signature.PatternMatrix
	csc     cluster.Scratch
	rng     *sim.RNG
	scores  []float64
	cpus    []float64
	patBufs [][]float64

	compactions, recalibrations   uint64
	cCompactions, cRecalibrations *obs.Counter
}

// newBankMaintainer builds a maintainer whose bank starts as the template
// library itself — every template of every mix app, in app-then-template
// order — so identification and CPU prediction work from tick zero. The
// anomaly threshold stays +Inf until the first calibration. installCap is
// the most candidates a merged-bank install will offer (0 when the owner
// never installs one); the cost scratch covers it too.
func newBankMaintainer(k bankKnobs, tmpl [][]template, apps []workload.StreamApp, seed int64, installCap int) *bankMaintainer {
	b := &bankMaintainer{
		knobs:     k,
		tmpl:      tmpl,
		apps:      apps,
		seed:      seed,
		bank:      &signature.Bank{Metric: metrics.L2RefsPerIns},
		threshold: math.Inf(1),
		win:       make([]winRec, k.WindowSize),
		rng:       sim.NewRNG(0),
	}
	// Pattern scratch is preallocated at the library's longest template —
	// no materialized or merged pattern is longer — so window
	// rematerialization, matrix fills and bank rebuilds never grow a
	// buffer mid-run.
	longest := longestPattern(tmpl)
	b.pats = carveBuffers(k.WindowSize, longest)
	b.patBufs = carveBuffers(k.BankK, longest)
	b.pm = signature.NewPatternMatrix(k.WindowSize, longest)
	b.dm.Reserve(k.WindowSize)
	b.csc.Reserve(k.WindowSize, k.BankK)
	b.cpuOf = make([]float64, k.WindowSize)
	b.typeOf = make([]string, k.WindowSize)
	b.scores = make([]float64, 0, k.WindowSize)
	b.cpus = make([]float64, 0, max(k.WindowSize, installCap))
	for ai := range tmpl {
		for t := range tmpl[ai] {
			tm := &tmpl[ai][t]
			b.bank.Entries = append(b.bank.Entries, signature.Entry{
				Pattern:   tm.pattern,
				Average:   stats.Mean(tm.pattern),
				CPUTimeNs: tm.cpuNs,
				Type:      apps[ai].Name,
			})
			b.cpus = append(b.cpus, tm.cpuNs)
		}
	}
	b.bank.ThresholdNs = medianInPlace(b.cpus)
	b.cpus = b.cpus[:0]
	// The initial bank is the whole library and a rebuilt one holds at
	// most BankK entries, so a store sized for the larger never grows.
	b.cols = signature.NewColumns(max(len(b.bank.Entries), k.BankK), longest)
	b.cols.Set(b.bank.Entries)
	return b
}

// carveBuffers returns n empty buffers of capacity c cut from one backing
// array, one allocation instead of n. Each buffer's capacity ends where
// the next begins, so an append past c reallocates instead of overwriting
// a neighbour.
func carveBuffers(n, c int) [][]float64 {
	buf := make([]float64, n*c)
	out := make([][]float64, n)
	for i := range out {
		out[i] = buf[i*c : i*c : (i+1)*c]
	}
	return out
}

// push appends one completion to the window ring, evicting the oldest once
// it is full.
func (b *bankMaintainer) push(rec winRec) {
	b.win[b.winHead] = rec
	b.winHead++
	if b.winHead == len(b.win) {
		b.winHead = 0
	}
	if b.winLen < len(b.win) {
		b.winLen++
	}
}

// record pushes completions in order.
func (b *bankMaintainer) record(recs []winRec) {
	for _, rec := range recs {
		b.push(rec)
	}
}

// at returns window record i, i ∈ [0, winLen), oldest first.
func (b *bankMaintainer) at(i int) *winRec {
	idx := b.winHead - b.winLen + i
	if idx < 0 {
		idx += len(b.win)
	}
	return &b.win[idx]
}

// compact runs one bank rebuild + recalibration cycle and reports whether
// it rebuilt the bank. A window below minWindowFill skips the rebuild but
// still recalibrates, so thresholds track drift even under light traffic.
func (b *bankMaintainer) compact() bool {
	if b.winLen < minWindowFill {
		if b.winLen > 0 {
			b.recalibrate()
		}
		return false
	}
	b.materialize()
	b.pm.Fill(&b.dm, b.pats[:b.winLen])
	b.rng.Reseed(b.seed + int64(b.compactions))
	cres := b.csc.KMedoids(&b.dm, cluster.Config{K: min(b.knobs.BankK, b.winLen), Rand: b.rng})
	b.rebuild(cres.Medoids, b.pats, b.cpuOf[:b.winLen], b.typeOf)
	// The window is still materialized: rebuild copies the medoids' patterns
	// out and leaves pats as they were.
	b.calibrate()
	b.compactions++
	b.cCompactions.Add(1)
	return true
}

// install rebuilds the bank from a merged candidate set (see rebuild) and
// recalibrates against it.
func (b *bankMaintainer) install(medoids []int, pats [][]float64, cpus []float64, types []string) {
	b.rebuild(medoids, pats, cpus, types)
	b.recalibrate()
}

// rebuild replaces the bank with the medoids of a candidate set — each
// candidate's pattern, solo CPU cost and type — in medoid order, and sets
// the high-usage threshold to the median cost over all candidates. Entry
// patterns copy into per-slot buffers, so the candidate storage may be
// reused afterwards.
func (b *bankMaintainer) rebuild(medoids []int, pats [][]float64, cpus []float64, types []string) {
	b.bank.Entries = b.bank.Entries[:0]
	for c, m := range medoids {
		b.patBufs[c] = append(b.patBufs[c][:0], pats[m]...)
		b.bank.Entries = append(b.bank.Entries, signature.Entry{
			Pattern:   b.patBufs[c],
			Average:   stats.Mean(b.patBufs[c]),
			CPUTimeNs: cpus[m],
			Type:      types[m],
		})
	}
	b.cpus = append(b.cpus[:0], cpus...)
	b.bank.ThresholdNs = medianInPlace(b.cpus)
	b.cols.Set(b.bank.Entries)
}

// materialize rematerializes every window record's full pattern, cost and
// type into pooled buffers (index 0 is the oldest record).
func (b *bankMaintainer) materialize() {
	for i := 0; i < b.winLen; i++ {
		rec := b.at(i)
		b.pats[i] = appendPattern(b.pats[i][:0], b.tmpl[rec.app][rec.tmpl].pattern, rec.drift, rec.anom)
		b.cpuOf[i] = rec.cpuNs
		b.typeOf[i] = b.apps[rec.app].Name
	}
}

// recalibrate rematerializes the window and calibrates against it.
func (b *bankMaintainer) recalibrate() {
	b.materialize()
	b.calibrate()
}

// calibrate rescores the materialized window against the current bank and
// resets the anomaly threshold to the calibration quantile of those
// scores.
func (b *bankMaintainer) calibrate() {
	b.scores = b.scores[:0]
	for i := 0; i < b.winLen; i++ {
		_, dist := b.cols.Identify(b.pats[i])
		b.scores = append(b.scores, dist/float64(len(b.pats[i])))
	}
	b.threshold = anomaly.Calibrate(b.scores, b.knobs.CalibrationQuantile, b.knobs.CalibrationHeadroom)
	b.recalibrations++
	b.cRecalibrations.Add(1)
}

// medianInPlace sorts xs and returns its median (0 for empty) — the
// paper's bank threshold, computed without the stats package's copy.
func medianInPlace(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
