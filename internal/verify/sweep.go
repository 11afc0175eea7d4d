package verify

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Options tunes a verification sweep.
type Options struct {
	// Dir is the golden corpus directory.
	Dir string
	// Workers bounds the number of cells running concurrently; ≤0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Obs, when non-nil, records one span series per corpus key under
	// verify/cell/<key> (observed once per cell run, so GOMAXPROCS
	// variants of a key accumulate into the same series) plus
	// verify.cells.{pass,fail} counters.
	Obs *obs.Collector
	// Update regenerates the corpus from the fresh runs instead of
	// checking against it. Cells that disagree across GOMAXPROCS variants
	// still fail — a corpus must never be regenerated over a determinism
	// violation.
	Update bool
}

// CellResult is one cell's outcome.
type CellResult struct {
	Cell        Cell
	Fingerprint string
	// Err reports a run or canonicalization failure (including an unknown
	// experiment name).
	Err error
	// Missing is set in check mode when the corpus has no entry for the
	// cell — the signature of a newly added experiment or grid point.
	Missing bool
	// Diff is the first divergence from the golden entry, nil when the
	// cell matched (or Missing/Err preempted the comparison).
	Diff *Divergence
	// Wall is the cell's wall-clock run time (reporting only; it never
	// participates in fingerprints).
	Wall time.Duration
}

// OK reports whether the cell verified cleanly.
func (r CellResult) OK() bool { return r.Err == nil && !r.Missing && r.Diff == nil }

// Report is a sweep's aggregate outcome.
type Report struct {
	Results []CellResult
	// Stale lists corpus keys no grid cell references (check mode only):
	// leftovers from removed experiments or grid points.
	Stale []string
	// Removed lists stale golden files deleted during regeneration
	// (update mode only).
	Removed []string
	// Updated counts golden files rewritten (update mode only).
	Updated int
}

// Failures returns the cells that did not verify.
func (r *Report) Failures() []CellResult {
	var out []CellResult
	for _, c := range r.Results {
		if !c.OK() {
			out = append(out, c)
		}
	}
	return out
}

// OK reports whether every cell verified and no corpus entry is stale.
func (r *Report) OK() bool { return len(r.Failures()) == 0 && len(r.Stale) == 0 }

// String renders the human-readable sweep summary: one line per failure
// (experiment named, first divergent field quoted), then the tally.
func (r *Report) String() string {
	var b strings.Builder
	for _, c := range r.Results {
		switch {
		case c.Err != nil:
			fmt.Fprintf(&b, "FAIL %s: %v\n", c.Cell, c.Err)
		case c.Missing:
			fmt.Fprintf(&b, "MISS %s: no golden entry %s%s — run with -golden to record it\n",
				c.Cell, c.Cell.Key(), corpusExt)
		case c.Diff != nil:
			fmt.Fprintf(&b, "FAIL %s: %s\n", c.Cell, c.Diff)
		}
	}
	for _, k := range r.Stale {
		fmt.Fprintf(&b, "STALE %s%s: corpus entry matches no grid cell — delete it or re-run -golden\n", k, corpusExt)
	}
	pass := len(r.Results) - len(r.Failures())
	fmt.Fprintf(&b, "verify: %d/%d cells ok", pass, len(r.Results))
	if r.Updated > 0 {
		fmt.Fprintf(&b, ", %d golden files written", r.Updated)
	}
	if len(r.Removed) > 0 {
		fmt.Fprintf(&b, ", %d stale golden files removed", len(r.Removed))
	}
	if len(r.Stale) > 0 {
		fmt.Fprintf(&b, ", %d stale corpus entries", len(r.Stale))
	}
	b.WriteString("\n")
	return b.String()
}

// DefaultGrid is the standard verification grid: every registry experiment
// at seed 1 and the smoke scale; a seed×scale spread for the cheap ones;
// and GOMAXPROCS={1,4} variants for a representative subset, which assert
// that parallelism never reaches an output. The grid is derived from the
// live registry, so a newly added experiment fails verification (missing
// golden entry) until the corpus is regenerated.
func DefaultGrid() []Cell {
	const smoke = 0.05
	// procsSubset exercises the stacks with real internal parallelism: the
	// distance engine (fig7), fig10's per-request identification sessions
	// driven from a worker pool, the kernel
	// exec loop (fig1), the distributed driver (faultanomaly), the
	// contention-easing run fan-out (fig12), the service-mode shard
	// workers (serve), the fleet (serial ticks; the cell catches any
	// parallelism added there), causal-path
	// localization over the distributed driver (faultlocalize), and the
	// policy-race fan-out (schedlab) — the GOMAXPROCS=1 variant asserts
	// its concurrent simulations aggregate identically to a serial
	// execution.
	procsSubset := map[string]bool{
		"fig1": true, "fig7": true, "fig10": true, "fig12": true,
		"faultanomaly": true, "serve": true, "fleet": true,
		"faultlocalize": true, "schedlab": true,
	}
	// The scheduler comparisons (Figures 12–13) get a wider seed×scale
	// spread: their full-scale runs are interactive now, and the
	// contention-easing deltas are the numbers most sensitive to an
	// accidental behavior change.
	widened := map[string]bool{"fig12": true, "fig13": true}

	var grid []Cell
	for _, name := range experiments.Names() {
		grid = append(grid,
			Cell{Experiment: name, Seed: 1, Scale: smoke},
			Cell{Experiment: name, Seed: 2, Scale: smoke},
			Cell{Experiment: name, Seed: 1, Scale: 0.1},
		)
		if procsSubset[name] {
			grid = append(grid,
				Cell{Experiment: name, Seed: 1, Scale: smoke, Procs: 1},
				Cell{Experiment: name, Seed: 1, Scale: smoke, Procs: 4},
			)
		}
		if widened[name] {
			grid = append(grid,
				Cell{Experiment: name, Seed: 3, Scale: smoke},
				Cell{Experiment: name, Seed: 2, Scale: 0.1},
				Cell{Experiment: name, Seed: 1, Scale: 0.25},
			)
		}
	}
	return grid
}

// FullGrid is the full-evaluation tier: every registry experiment at seed 1
// and scale 1 — the configuration whose numbers the README quotes. One cell
// per experiment keeps the tier's cost a handful of minutes; the seed and
// scale spreads live in DefaultGrid. Its corpus is committed separately
// (testdata/golden-full) so the smoke and full tiers can be regenerated
// independently.
func FullGrid() []Cell {
	var grid []Cell
	for _, name := range experiments.Names() {
		grid = append(grid, Cell{Experiment: name, Seed: 1, Scale: 1})
	}
	return grid
}

// Sweep runs every grid cell and checks it against (or, with Update,
// rewrites) the golden corpus. Cells sharing a GOMAXPROCS setting run
// concurrently under a bounded worker pool; cells pinning different
// GOMAXPROCS values run as separate pool phases so the setting is stable
// while any cell that observes it is in flight.
func Sweep(cells []Cell, opt Options) (*Report, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var corpus *Corpus
	if !opt.Update {
		var err error
		corpus, err = LoadCorpus(opt.Dir)
		if errors.Is(err, fs.ErrNotExist) {
			corpus = &Corpus{Dir: opt.Dir, Entries: map[string]*Golden{}}
		} else if err != nil {
			return nil, err
		}
	}

	// Per-key span handles are resolved up front (Span takes the collector
	// lock; Observe is lock-free), so workers only touch atomics.
	spans := map[string]*obs.SpanSeries{}
	if opt.Obs != nil {
		for _, c := range cells {
			if _, ok := spans[c.Key()]; !ok {
				spans[c.Key()] = opt.Obs.Span("cell", c.Key())
			}
		}
	}
	passCt := opt.Obs.Counter("verify.cells.pass")
	failCt := opt.Obs.Counter("verify.cells.fail")

	rep := &Report{Results: make([]CellResult, len(cells))}
	lines := make([][]Line, len(cells))

	// Group cell indices by their GOMAXPROCS pin; the default group (0)
	// runs first under the ambient setting.
	groups := map[int][]int{}
	for i, c := range cells {
		groups[c.Procs] = append(groups[c.Procs], i)
	}
	procsOrder := make([]int, 0, len(groups))
	for p := range groups { // maporder:ok keys drained then sorted below
		procsOrder = append(procsOrder, p)
	}
	sort.Ints(procsOrder)

	runGroup := func(idxs []int) {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for _, i := range idxs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				cell := cells[i]
				start := time.Now()
				ls, fp, err := runCell(cell)
				res := CellResult{Cell: cell, Fingerprint: fp, Err: err, Wall: time.Since(start)}
				spans[cell.Key()].Observe(sim.Time(res.Wall.Nanoseconds()))
				if err == nil && !opt.Update {
					if g, ok := corpus.Entries[cell.Key()]; !ok {
						res.Missing = true
					} else if g.Fingerprint != fp {
						res.Diff = Diff(g.Lines, ls)
					}
				}
				lines[i] = ls
				rep.Results[i] = res
			}(i)
		}
		wg.Wait()
	}

	for _, p := range procsOrder {
		if p > 0 {
			prev := runtime.GOMAXPROCS(p)
			runGroup(groups[p])
			runtime.GOMAXPROCS(prev)
		} else {
			runGroup(groups[p])
		}
	}

	if opt.Update {
		if err := writeCorpus(opt.Dir, cells, lines, rep); err != nil {
			return nil, err
		}
	} else {
		live := map[string]bool{}
		for _, c := range cells {
			live[c.Key()] = true
		}
		for _, k := range corpus.Keys() {
			if !live[k] {
				rep.Stale = append(rep.Stale, k)
			}
		}
	}
	for _, r := range rep.Results {
		if r.OK() {
			passCt.Add(1)
		} else {
			failCt.Add(1)
		}
	}
	return rep, nil
}

// writeCorpus records update-mode results, one golden file per corpus key.
// GOMAXPROCS variants of a key must agree with its canonical (Procs == 0)
// run before anything is written; a disagreement is a determinism violation
// and marks the variant cell failed instead of silently picking a winner.
func writeCorpus(dir string, cells []Cell, lines [][]Line, rep *Report) error {
	byKey := map[string]int{} // key → index of the canonical run
	for i, c := range cells {
		if rep.Results[i].Err != nil {
			continue
		}
		j, ok := byKey[c.Key()]
		if !ok {
			byKey[c.Key()] = i
			continue
		}
		if rep.Results[j].Fingerprint != rep.Results[i].Fingerprint {
			rep.Results[i].Diff = Diff(lines[j], lines[i])
			rep.Results[i].Err = fmt.Errorf("output differs across GOMAXPROCS variants of %s: %s",
				cells[j], rep.Results[i].Diff)
		}
	}
	for i, c := range cells {
		if byKey[c.Key()] != i || rep.Results[i].Err != nil {
			continue
		}
		cell := c
		cell.Procs = 0
		if err := WriteGolden(dir, cell, lines[i]); err != nil {
			return err
		}
		rep.Updated++
	}
	// Regeneration owns the directory: golden files for keys the grid no
	// longer produces are removed so stale entries cannot accumulate.
	if prior, err := LoadCorpus(dir); err == nil {
		for _, k := range prior.Keys() {
			if _, live := byKey[k]; !live {
				if err := os.Remove(goldenPath(dir, prior.Entries[k].Cell)); err != nil {
					return err
				}
				rep.Removed = append(rep.Removed, k)
			}
		}
	}
	return nil
}

// runCell executes one cell and canonicalizes its result. The run is
// uninstrumented (results are identical either way; see package obs) — the
// sweep's own collector times the cell from outside.
func runCell(c Cell) ([]Line, string, error) {
	e, ok := experiments.Lookup(c.Experiment)
	if !ok {
		return nil, "", fmt.Errorf("unknown experiment %q (valid: %s)",
			c.Experiment, strings.Join(experiments.Names(), ","))
	}
	res, err := e.Run(experiments.Config{Seed: c.Seed, Scale: c.Scale})
	if err != nil {
		return nil, "", err
	}
	ls, err := Canonicalize(res)
	if err != nil {
		return nil, "", err
	}
	return ls, FingerprintLines(ls), nil
}
