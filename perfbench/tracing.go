package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

// span is one timed call the benchmark made into the program. Spans of one
// workload step (a tick, or one application's pipeline pass) share Step.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Step   int    `json:"step"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, step int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Step: step, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// spanTotals is the total and self time of every span with one name.
type spanTotals struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// summary returns total and self time per span name; self time is a
// span's duration minus the durations of its children.
func (t *tracer) summary() map[string]spanTotals {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]spanTotals{}
	for i, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.TotalNs += s.End - s.Start
		st.SelfNs += s.End - s.Start - child[i]
		out[s.Name] = st
	}
	return out
}

// counterValues reads every counter of a collector report by name.
func counterValues(c *obs.Collector) map[string]uint64 {
	out := map[string]uint64{}
	for _, ct := range c.Report().Counters {
		out[ct.Name] += ct.Value
	}
	return out
}

// zeroLayers fills every per-layer metric a workload does not reach with 0.
func zeroLayers(m map[string]float64) {
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok {
			m[l.name] = 0
		}
	}
}

// tickRecorder steps a stream system one tick at a time, timing each tick
// and noting whether it compacted or merged.
type tickRecorder struct {
	tr                       *tracer
	ticks                    int       // step id of the next tick span
	ordinary, compact, merge []float64 // host µs per tick
	all                      float64
}

func (r *tickRecorder) chunk(g group, chunk int) {
	for _, sys := range g {
		before := sys.counts()
		for ingested := uint64(0); ingested < uint64(chunk); {
			id := r.tr.begin("Process(1)", -1, r.ticks)
			r.ticks++
			t0 := time.Now()
			sys.Process(1)
			us := float64(time.Since(t0).Nanoseconds()) / 1e3
			r.tr.end(id)
			after := sys.counts()
			ingested += after.Arrivals - before.Arrivals
			r.all += us
			switch {
			case after.Merges > before.Merges:
				r.merge = append(r.merge, us)
			case after.Compactions > before.Compactions:
				r.compact = append(r.compact, us)
			default:
				r.ordinary = append(r.ordinary, us)
			}
			before = after
		}
	}
}

// extraMs is the mean extra host time of maintenance ticks over the median
// ordinary tick, in ms.
func extraMs(maint []float64, base float64) float64 {
	if len(maint) == 0 {
		return 0
	}
	return (mean(maint) - base) / 1e3
}

// traceStream is the traced run of a stream workload: an untraced segment,
// a traced segment over a second, instrumented instance, the parallel rung
// and the folded CPU profile.
func traceStream(o opts, spec streamSpec) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	budget := o.seconds * 0.35

	plain, _, _, err := setupStream(spec, o.seed, nil)
	if err != nil {
		return nil, err
	}
	setupCounts := plain.counts()
	useg := runSegment(plain, spec, budget, plainChunk)
	checkStream(rep, spec, useg, plain)
	plain.Close()

	col := obs.New("perfbench")
	sys, _, _, err := setupStream(spec, o.seed, col)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	rep.check(sys.counts() == setupCounts, "%s: traced set-up differs from the untraced set-up", spec.name)
	rec := &tickRecorder{tr: newTracer()}
	// The engines' identify histograms; quantiles come from the first.
	var hists []*obs.Histogram
	for _, s := range sys {
		if e, ok := s.(engineSys); ok {
			hists = append(hists, e.Histogram())
		}
	}
	calls := func() (n uint64) {
		for _, h := range hists {
			n += h.Count()
		}
		return n
	}
	calls0, c0 := calls(), counterValues(col)
	prof, err := startProfile(o)
	if err != nil {
		return nil, err
	}
	tseg := runSegment(sys, spec, budget, rec.chunk)
	pprof.StopCPUProfile()
	prof.Close()
	checkStream(rep, spec, tseg, sys)
	rep.check(reflect.DeepEqual(useg.outcome, tseg.outcome), "%s: traced outcome differs from the untraced outcome", spec.name)
	rep.attempted = int64(useg.arrivals + tseg.arrivals)
	rep.outcome = map[string]any{"setup": setupCounts, "checkpoint": tseg.outcome}

	m := rep.metrics
	base := median(rec.ordinary)
	m["serve.ticks"] = float64(len(rec.ordinary) + len(rec.compact) + len(rec.merge))
	m["serve.tick_us_p50"] = base
	m["serve.tick_us_p99"] = quantile(rec.ordinary, 0.99)
	m["serve.compact_ms"] = extraMs(rec.compact, base)
	m["serve.merge_ms"] = extraMs(rec.merge, base)
	m["serve.maint_frac"] = frac(sum(rec.compact)+sum(rec.merge), rec.all)
	d := sys.counts().sub(tseg.start)
	m["serve.degraded_frac"] = frac(float64(d.Degraded), float64(d.Arrivals))
	m["serve.shed_frac"] = frac(float64(d.Shed), float64(d.Arrivals))
	if len(hists) > 0 {
		c1 := counterValues(col)
		calls := float64(calls() - calls0)
		pruned := float64(c1["signature.prune.cached_lb"] + c1["signature.prune.paa_bound"] + c1["signature.prune.abandoned"] -
			c0["signature.prune.cached_lb"] - c0["signature.prune.paa_bound"] - c0["signature.prune.abandoned"])
		created := float64(c1["signature.sessions.created"] - c0["signature.sessions.created"])
		reused := float64(c1["signature.sessions.reused"] - c0["signature.sessions.reused"])
		bank := float64(sys[0].(engineSys).Result().BankEntries)
		m["signature.identify_ns_p50"] = hists[0].Quantile(0.50)
		m["signature.identify_ns_p99"] = hists[0].Quantile(0.99)
		m["signature.identify_calls_per_req"] = frac(calls, float64(d.Arrivals))
		m["signature.prune_frac"] = frac(pruned, calls*bank)
		m["signature.sessions_reused_frac"] = frac(reused, created+reused)
	}
	urate, trate := float64(useg.arrivals)/useg.busy/median(useg.speeds), float64(tseg.arrivals)/tseg.busy/median(tseg.speeds)
	m["trace.overhead_frac"] = 1 - frac(trate, urate)
	return finishTrace(o, rep, rec.tr, col, map[string]any{
		"untraced_req_per_s": urate, "traced_req_per_s": trate,
		"ordinary_ticks": len(rec.ordinary), "compaction_ticks": len(rec.compact), "merge_ticks": len(rec.merge),
	})
}

// tracePipeline is the traced run of repro-pipeline: untraced passes, then
// traced passes with spans, layer counters and a CPU profile.
func tracePipeline(o opts) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	budget := o.seconds * 0.35
	thresholds, err := calibrate(passSeed(o.seed, 0))
	if err != nil {
		return nil, err
	}
	u, err := runPasses(rep, thresholds, o.seed, budget, nil, nil, &passTiming{})
	if err != nil {
		return nil, err
	}
	tr, col := newTracer(), obs.New("perfbench")
	var tm passTiming
	prof, err := startProfile(o)
	if err != nil {
		return nil, err
	}
	t, err := runPasses(rep, thresholds, o.seed, budget, tr, col, &tm)
	pprof.StopCPUProfile()
	prof.Close()
	if err != nil {
		return nil, err
	}
	rep.check(reflect.DeepEqual(u.passes, t.passes), "repro-pipeline: traced outcome differs from the untraced outcome")
	rep.outcome = map[string]any{"thresholds": thresholds, "passes": t.passes}

	// Per-pass figures over the traced passes; the deterministic segment's
	// passes cycle through every seed, later ones repeat them.
	n := float64(len(t.rates))
	var requests, ins float64
	for p := range t.rates {
		for _, a := range t.passes[p%pipelineSeeds] {
			requests += float64(a.Completed)
			ins += float64(a.Instructions)
		}
	}
	c := counterValues(col)
	perPass := func(d time.Duration) float64 { return d.Seconds() / n }
	m := rep.metrics
	m["signature.bank_build_ms"] = perPass(tm.bank) * 1e3
	m["signature.ident_us_per_req"] = tm.ident.Seconds() * 1e6 / requests
	m["distance.dtw_fill_s"] = perPass(tm.fill)
	m["distance.dtw_ns_per_pair"] = float64(tm.fill.Nanoseconds()) / tm.pairs
	m["distance.dtw_cells_per_s"] = tm.cells / tm.fill.Seconds()
	m["cluster.kmedoids_ms"] = perPass(tm.kmedoids) * 1e3
	m["cluster.iterations"] = float64(tm.iterations) / (n * float64(len(thresholds)))
	m["kernel.run_s"] = perPass(tm.run)
	m["kernel.ns_per_event"] = frac(float64(tm.run.Nanoseconds()), float64(c["sim.events_dispatched"]))
	m["kernel.events_per_req"] = float64(c["sim.events_dispatched"]) / requests
	m["kernel.switches_per_req"] = float64(c["kernel.context_switches"]) / requests
	m["kernel.preemptions_per_req"] = float64(c["kernel.preemptions"]) / requests
	m["sampling.samples_per_req"] = float64(tm.samples) / requests
	m["sim.gins_per_s"] = ins / tm.run.Seconds() / 1e9
	urate, trate := float64(u.requests)/u.busy/median(u.speeds), float64(t.requests)/t.busy/median(t.speeds)
	m["trace.overhead_frac"] = 1 - frac(trate, urate)
	return finishTrace(o, rep, tr, col, map[string]any{
		"untraced_req_per_s": urate, "traced_req_per_s": trate, "traced_passes": len(t.rates),
	})
}

// finishTrace adds the parallel rung and the folded profile, fills the
// layers the workload did not reach, and attaches the trace to the
// result file.
func finishTrace(o opts, rep *report, tr *tracer, col *obs.Collector, info map[string]any) (*report, error) {
	rung, err := parallelRung(rep, o.seed)
	if err != nil {
		return nil, err
	}
	for k, v := range rung {
		rep.metrics[k] = v
	}
	prof, err := foldProfile(o)
	if err != nil {
		return nil, err
	}
	for k, v := range prof {
		rep.metrics[k] = v
	}
	rep.metrics["host.nproc"] = float64(runtime.NumCPU())
	zeroLayers(rep.metrics)
	info["spans"] = tr.spans
	info["span_summary"] = tr.summary()
	info["counters"] = col.Report()
	rep.extra = info
	return rep, nil
}

func profilePath(o opts) string {
	return filepath.Join(o.out, fmt.Sprintf("%s-seed%d-cpu.pprof", o.workload, o.seed))
}

func startProfile(o opts) (*os.File, error) {
	f, err := os.Create(profilePath(o))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// profPackages are the repro/internal packages whose flat CPU share the
// traced run reports as prof.<pkg>_frac.
var profPackages = []string{"sim", "machine", "cache", "kernel", "sched", "sampling",
	"distance", "cluster", "signature", "serve", "workload", "trace"}

// foldProfile folds the traced segment's CPU profile per package with the
// toolchain's pprof: each function's flat samples go to its package.
func foldProfile(o opts) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, o.gobin, "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms", "-symbolize=none", profilePath(o))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[0], "ms") || !strings.HasSuffix(f[1], "%") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		total += v
		flat[profBucket(strings.Join(f[5:], " "))] += v
	}
	out := map[string]float64{}
	for _, p := range profPackages {
		out["prof."+p+"_frac"] = frac(flat[p], total)
	}
	out["prof.runtime_frac"] = frac(flat["runtime"], total)
	out["prof.clock_frac"] = frac(flat["clock"], total)
	return out, nil
}

// profBucket names the bucket a function's samples fold into: a
// repro/internal package, "clock" for wall-clock reads, "runtime" for the
// Go runtime (GC and scheduler), or "" for anything else.
func profBucket(fn string) string {
	if strings.HasPrefix(fn, "time.Now") || strings.HasPrefix(fn, "time.Since") || strings.HasPrefix(fn, "time.now") ||
		strings.HasPrefix(fn, "runtime.nanotime") || strings.HasPrefix(fn, "runtime.walltime") || strings.Contains(fn, "vdso") {
		return "clock"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
	}
	return ""
}

// parallelRung times the three parallel paths at 1 and 2 workers on
// identical inputs, checking that the worker count leaves results
// unchanged. Speedup is the 1-worker time over the 2-worker time.
func parallelRung(rep *report, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	for _, spec := range []streamSpec{serveSteady, fleetCrowd} {
		var sys [2]streamSystem
		for w := range sys {
			s, err := spec.build(seed, w+1, nil)
			if err != nil {
				return nil, err
			}
			defer s.Close()
			s.Process(spec.rungWarm)
			sys[w] = s
		}
		var t [2][]float64
		for r := 0; r < 3; r++ {
			for w := range sys {
				t0 := time.Now()
				sys[w].Process(spec.rungChunk)
				t[w] = append(t[w], time.Since(t0).Seconds())
			}
		}
		rep.check(reflect.DeepEqual(sys[0].outcome(), sys[1].outcome()), "%s: 1 and 2 workers disagree", spec.name)
		name := "serve.parallel_speedup"
		if spec.name == fleetCrowd.name {
			name = "fleet.parallel_speedup"
		}
		out[name] = median(t[0]) / median(t[1])
	}

	app := workload.NewTPCC()
	res, err := core.Run(core.Options{App: app, Requests: 200, Seed: seed}, core.WithSampling(core.DefaultSampling(app)))
	if err != nil {
		return nil, fmt.Errorf("parallel rung: %w", err)
	}
	m := core.NewModeler(app.Name(), res.Store.Traces)
	var seqs [][]float64
	for _, t := range res.Store.Traces {
		seqs = append(seqs, t.Resampled(metrics.CPI, m.BucketIns))
	}
	var t [2][]float64
	var dm [2]*distance.Matrix
	for r := 0; r < 3; r++ {
		for w := range dm {
			t0 := time.Now()
			dm[w] = distance.NewMatrixFromSequences(seqs, m.DTWPenalized(), distance.MatrixOptions{Workers: w + 1})
			t[w] = append(t[w], time.Since(t0).Seconds())
		}
	}
	rep.check(reflect.DeepEqual(dm[0], dm[1]), "distance: 1 and 2 workers disagree")
	out["distance.parallel_speedup"] = median(t[0]) / median(t[1])
	return out, nil
}
