// Bank maintenance: the paper's online loop run over a sliding window.
// One bankMaintainer serves the single-node engine and every fleet node.
// It keeps the window ring of recent completions and, every compaction,
// rematerializes the window's patterns once, reclusters them with
// k-medoids over a pooled distance matrix, rebuilds the signature bank
// from the medoids, and recalibrates the anomaly threshold by scoring the
// same materialized patterns against the new bank. The fleet's merge
// (mergeBanks) runs the same cluster and rebuild steps over every node's
// bank entries, gathered into the fleet's workspace. A maintainer compacts
// in a workspace it is handed: the engine's own, or the one all of a
// fleet's nodes share, since they compact one after another.
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
// workspace sized for a full window or a whole merge, whichever is larger,
// so no compaction or merge, not even the first, allocates.
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

// workspace is the scratch a compaction, recalibration or merge works in.
// pats, cpuOf and typeOf hold the candidates a clustering reads: a
// rematerialized window (oldest first) or every node's bank entries on a
// merge. pm fills dm from them. Nothing in it outlives the call that wrote
// it, so maintainers that never run at once can share one.
type workspace struct {
	pats   [][]float64
	cpuOf  []float64
	typeOf []string
	dm     distance.Matrix
	pm     *signature.PatternMatrix
	csc    cluster.Scratch
	rng    *sim.RNG
	scores []float64
	cpus   []float64
}

// newWorkspace sizes a workspace for maintainers with knobs k over a
// library whose longest pattern is longest, for a full window or mergeCap
// merged candidates (0 when the owner never merges), whichever is more.
func newWorkspace(k bankKnobs, longest, mergeCap int) *workspace {
	n := max(k.WindowSize, mergeCap)
	w := &workspace{
		pats:   carveBuffers(n, longest),
		cpuOf:  make([]float64, n),
		typeOf: make([]string, n),
		pm:     signature.NewPatternMatrix(n, longest),
		rng:    sim.NewRNG(0),
		scores: make([]float64, 0, k.WindowSize),
		cpus:   make([]float64, 0, n),
	}
	w.dm.Reserve(n)
	w.csc.Reserve(n, k.BankK)
	return w
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
	win     []reqRec
	winLen  int
	winHead int

	// patBufs hold the bank's entry patterns, one buffer per slot.
	patBufs [][]float64
	// The compaction workspace, perhaps shared with other maintainers.
	*workspace

	compactions, recalibrations   uint64
	cCompactions, cRecalibrations *obs.Counter
}

// newBankMaintainer builds a maintainer whose bank starts as the template
// library itself — every template of every mix app, in app-then-template
// order — so identification and CPU prediction work from tick zero. The
// anomaly threshold stays +Inf until the first calibration. ws is the
// workspace it compacts in, sized by newWorkspace for the same knobs and
// library.
func newBankMaintainer(k bankKnobs, tmpl [][]template, apps []workload.StreamApp, seed int64, ws *workspace) *bankMaintainer {
	b := &bankMaintainer{
		knobs:     k,
		tmpl:      tmpl,
		apps:      apps,
		seed:      seed,
		bank:      &signature.Bank{Metric: metrics.L2RefsPerIns},
		threshold: math.Inf(1),
		win:       make([]reqRec, k.WindowSize),
		workspace: ws,
	}
	// Pattern buffers, like the workspace's, are preallocated at the
	// library's longest template — no materialized or merged pattern is
	// longer — so nothing grows a buffer mid-run.
	longest := longestPattern(tmpl)
	b.patBufs = carveBuffers(k.BankK, longest)
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
func (b *bankMaintainer) push(rec reqRec) {
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
func (b *bankMaintainer) record(recs []reqRec) {
	for _, rec := range recs {
		b.push(rec)
	}
}

// at returns window record i, i ∈ [0, winLen), oldest first.
func (b *bankMaintainer) at(i int) *reqRec {
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
	b.rebuild(b.medoids(b.winLen, b.knobs.BankK, b.seed+int64(b.compactions)), b.pats, b.cpuOf[:b.winLen], b.typeOf)
	// The window is still materialized: rebuild copies the medoids' patterns
	// out and leaves pats as they were.
	b.calibrate()
	b.compactions++
	b.cCompactions.Add(1)
	return true
}

// medoids clusters the candidates pats[:n] into at most k clusters, with
// k-medoids reseeded from seed, and returns the medoids' candidate
// indices. The slice is k-medoids scratch, valid until the next call.
func (w *workspace) medoids(n, k int, seed int64) []int {
	w.pm.Fill(&w.dm, w.pats[:n])
	w.rng.Reseed(seed)
	return w.csc.KMedoids(&w.dm, cluster.Config{K: min(k, n), Rand: w.rng}).Medoids
}

// mergeBanks is the fleet's merge. It gathers every maintainer's bank
// entries, in maintainer order, as candidates into ws (sized for them),
// clusters them with seed, rebuilds every bank from the medoids, and only
// then recalibrates every maintainer. The order matters: a recalibration
// rematerializes a window into its maintainer's workspace, ws when they
// share it, so every rebuild must have copied its entries out first.
// Each recalibration reads only its own maintainer's bank and window.
// Every bank holds at least one entry, so there is always a candidate.
func mergeBanks(ws *workspace, bms []*bankMaintainer, seed int64) {
	var n int
	for _, b := range bms {
		for _, e := range b.bank.Entries {
			ws.pats[n] = append(ws.pats[n][:0], e.Pattern...)
			ws.cpuOf[n] = e.CPUTimeNs
			ws.typeOf[n] = e.Type
			n++
		}
	}
	medoids := ws.medoids(n, bms[0].knobs.BankK, seed)
	for _, b := range bms {
		b.rebuild(medoids, ws.pats, ws.cpuOf[:n], ws.typeOf)
	}
	for _, b := range bms {
		b.recalibrate()
	}
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
