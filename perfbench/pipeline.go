package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/signature"
	"repro/internal/stats"
	"repro/internal/workload"
)

const (
	// pipelineRequests per application balances the two heavy steps: the
	// kernel simulation grows linearly with it and the DTW fill
	// quadratically. At 240 they take about 40% and 60% of a pass.
	pipelineRequests = 240
	// pipelineK is the paper's k-medoids cluster count.
	pipelineK = 10
	// pipelineBankK is the compacted signature bank size.
	pipelineBankK = 32
	// pipelineSeeds is how many derived seeds the passes cycle through:
	// the first pipelineSeeds passes are the deterministic segment, so the
	// simulated outcomes average over that many request populations, and
	// every later pass must repeat the pass of its seed exactly.
	pipelineSeeds = 4
)

// passSeed is the seed of pass p of a run with the given seed.
func passSeed(seed int64, p int) int64 { return seed*pipelineSeeds + int64(p%pipelineSeeds) }

// appOutcome is one application's deterministic pipeline outcome.
type appOutcome struct {
	App          string
	Threshold    float64
	Completed    int
	LatencySumNs int64
	Cycles       uint64
	Instructions uint64
	Switches     uint64
	MatrixSum    float64
	Medoids      []int
	Iterations   int
	BankEntries  int
	BankThreshNs float64
	Identified   int
	Wrong        int
	P99LatencyMs float64
	P99CPI       float64
}

// pipelineProducts are what one application's pass leaves behind; they
// stay live through the heap measurement so live_heap_mb sees the working
// set.
type pipelineProducts struct {
	run  *core.Result
	dm   *distance.Matrix
	cl   *cluster.Result
	bank *signature.Bank
}

// passTiming is the host time one pass spent in each layer call.
type passTiming struct {
	run, fill, kmedoids, bank, ident time.Duration
	cells, pairs                     float64
	iterations                       int
	samples                          uint64
}

// calibrate is the pipeline's set-up: a round-robin run per application
// yields the contention-easing high-usage threshold.
func calibrate(seed int64) ([]float64, error) {
	var out []float64
	for _, app := range workload.All() {
		res, err := core.Run(core.Options{App: app, Requests: pipelineRequests, Seed: seed},
			core.WithSampling(core.DefaultSampling(app)))
		if err != nil {
			return nil, fmt.Errorf("calibration %s: %w", app.Name(), err)
		}
		out = append(out, sched.HighUsageThreshold(res.Store, 80))
	}
	return out, nil
}

// runPipelineApp runs the paper's offline flow for one application. tr and
// col are nil in untimed-by-layer runs; with them every public call gets a
// span under parent and the layers report into col.
func runPipelineApp(app workload.App, threshold float64, seed int64, tr *tracer, parent, step int, col *obs.Collector, tm *passTiming) (appOutcome, pipelineProducts, error) {
	out := appOutcome{App: app.Name(), Threshold: threshold}
	var p pipelineProducts

	id := tr.begin("core.Run", parent, step)
	t0 := time.Now()
	run, err := core.Run(core.Options{
		App: app, Requests: pipelineRequests, Seed: seed,
		PolicyName: "contention-easing", UsageThreshold: threshold,
	}, core.WithSampling(core.DefaultSampling(app)), core.WithObserver(col))
	tm.run += time.Since(t0)
	tr.end(id)
	if err != nil {
		return out, p, fmt.Errorf("%s: %w", app.Name(), err)
	}
	p.run = run
	traces := run.Store.Traces
	out.Completed = len(traces)
	out.Switches = run.ContextSwitches
	tm.samples += run.Samples.Total()
	var lat, cpi []float64
	for _, t := range traces {
		c := t.Totals()
		out.Cycles += c.Cycles
		out.Instructions += c.Instructions
		out.LatencySumNs += int64(t.End - t.Start)
		lat = append(lat, float64(t.End-t.Start)/1e6)
		cpi = append(cpi, t.MetricValue(metrics.CPI))
	}
	out.P99LatencyMs = stats.Percentile(lat, 99)
	out.P99CPI = stats.Percentile(cpi, 99)

	m := core.NewModeler(app.Name(), traces)
	seqs := make([][]float64, len(traces))
	for i, t := range traces {
		seqs[i] = t.Resampled(metrics.CPI, m.BucketIns)
	}
	id = tr.begin("distance.NewMatrixFromSequences", parent, step)
	t0 = time.Now()
	p.dm = distance.NewMatrixFromSequences(seqs, m.DTWPenalized(), distance.MatrixOptions{Workers: 1, Obs: col})
	tm.fill += time.Since(t0)
	tr.end(id)
	n := len(seqs)
	tm.pairs += float64(n * (n - 1) / 2)
	for i := range seqs {
		for j := i + 1; j < n; j++ {
			tm.cells += float64(len(seqs[i]) * len(seqs[j]))
		}
	}
	for i := 0; i < n; i++ {
		out.MatrixSum += p.dm.RowSum(i)
	}

	id = tr.begin("cluster.KMedoidsMatrix", parent, step)
	t0 = time.Now()
	p.cl = cluster.KMedoidsMatrix(p.dm, cluster.Config{K: pipelineK, Seed: seed, Workers: 1})
	tm.kmedoids += time.Since(t0)
	tr.end(id)
	out.Medoids = append([]int(nil), p.cl.Medoids...)
	out.Iterations = p.cl.Iterations
	tm.iterations += p.cl.Iterations

	id = tr.begin("signature.BuildCompact", parent, step)
	t0 = time.Now()
	p.bank = signature.BuildCompact(traces, metrics.L2RefsPerIns, core.BucketFor(app.Name()), 0, pipelineBankK, seed)
	tm.bank += time.Since(t0)
	tr.end(id)
	out.BankEntries = len(p.bank.Entries)
	out.BankThreshNs = p.bank.ThresholdNs

	// Half-prefix identification of every request through one reused
	// matcher session: predict high CPU usage halfway through.
	ses := signature.NewMatcher(p.bank).NewSession()
	for _, t := range traces {
		pat := t.Resampled(metrics.L2RefsPerIns, p.bank.BucketIns)
		half := pat[:len(pat)/2]
		id = tr.begin("signature.Session.Extend", parent, step)
		t0 = time.Now()
		ses.Reset()
		ses.Extend(half...)
		best := ses.Best()
		tm.ident += time.Since(t0)
		tr.end(id)
		if best >= 0 {
			out.Identified++
			if p.bank.HighUsage(best) != (float64(t.CPUTime()) > p.bank.ThresholdNs) {
				out.Wrong++
			}
		}
	}
	return out, p, nil
}

// runPass runs the whole pipeline once over every application.
func runPass(thresholds []float64, seed int64, tr *tracer, step int, col *obs.Collector, tm *passTiming) ([]appOutcome, []pipelineProducts, error) {
	var outs []appOutcome
	var prods []pipelineProducts
	for i, app := range workload.All() {
		id := tr.begin("pipeline."+app.Name(), -1, step)
		o, p, err := runPipelineApp(app, thresholds[i], seed, tr, id, step, col, tm)
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, o)
		prods = append(prods, p)
	}
	return outs, prods, nil
}

// pipelineSimulated derives the simulated end-to-end metrics from the
// deterministic segment's passes.
func pipelineSimulated(passes [][]appOutcome) map[string]float64 {
	var completed, identified, wrong, requested int
	var cycles, ins float64
	var logLat, logCPI, n float64
	for _, outs := range passes {
		for _, o := range outs {
			requested += pipelineRequests
			completed += o.Completed
			identified += o.Identified
			wrong += o.Wrong
			cycles += float64(o.Cycles)
			ins += float64(o.Instructions)
			logLat += math.Log(o.P99LatencyMs)
			logCPI += math.Log(o.P99CPI)
			n++
		}
	}
	return map[string]float64{
		"served_frac":       float64(completed) / float64(requested),
		"full_service_frac": float64(identified) / float64(requested),
		"mispredict_frac":   frac(float64(wrong), float64(identified)),
		"sim_p99_ms":        math.Exp(logLat / n),
		"sim_cpi":           frac(cycles, ins),
		"sim_cpi_p99":       math.Exp(logCPI / n),
	}
}

// pipelineGated are the simulated metrics steady enough across seeds to be
// reported on repro-pipeline; it injects no anomalies, so it has no flag_f1.
var pipelineGated = []string{"served_frac", "full_service_frac", "mispredict_frac", "sim_p99_ms", "sim_cpi", "sim_cpi_p99"}

// checkPass applies the pipeline's correctness gate to one pass.
func checkPass(rep *report, outs []appOutcome, prods []pipelineProducts, want []appOutcome) {
	for i, o := range outs {
		rep.check(o.Completed == pipelineRequests, "repro-pipeline %s completed %d of %d requests", o.App, o.Completed, pipelineRequests)
		seen := map[uint64]bool{}
		for _, t := range prods[i].run.Store.Traces {
			rep.check(!seen[t.ID], "repro-pipeline %s completed request %d twice", o.App, t.ID)
			seen[t.ID] = true
		}
	}
	if want != nil {
		rep.check(reflect.DeepEqual(outs, want), "repro-pipeline: a pass differs from the earlier pass of its seed")
	}
}

// passRun is a timed sequence of pipeline passes.
type passRun struct {
	rates  []float64 // requests per host second, one per pass
	speeds []float64 // host speed before each pass
	// requests and busy are the requests handled and the host seconds
	// spent inside passes.
	requests int
	busy     float64
	// passes are the deterministic segment: the first pipelineSeeds passes.
	passes [][]appOutcome
	// mallocs counts heap allocations over the deterministic segment.
	mallocs uint64
	// heapMB is the mean live heap after each pass of the deterministic
	// segment, with that pass's products still referenced.
	heapMB  float64
	elapsed float64
}

// runPasses runs passes until the deterministic segment is complete and
// at least seconds have passed.
func runPasses(rep *report, thresholds []float64, seed int64, seconds float64, tr *tracer, col *obs.Collector, tm *passTiming) (passRun, error) {
	var r passRun
	m0 := mallocs()
	begin := time.Now()
	for pass := 0; pass < pipelineSeeds || time.Since(begin).Seconds() < seconds; pass++ {
		speed := hostSpeed()
		t0 := time.Now()
		outs, prods, err := runPass(thresholds, passSeed(seed, pass), tr, pass, col, tm)
		if err != nil {
			return r, err
		}
		secs := time.Since(t0).Seconds()
		r.requests += len(outs) * pipelineRequests
		r.busy += secs
		r.rates = append(r.rates, float64(len(outs)*pipelineRequests)/secs)
		r.speeds = append(r.speeds, speed)
		var want []appOutcome
		if pass >= pipelineSeeds {
			want = r.passes[pass%pipelineSeeds]
		}
		checkPass(rep, outs, prods, want)
		if pass < pipelineSeeds {
			r.passes = append(r.passes, outs)
			if pass == pipelineSeeds-1 {
				r.mallocs = mallocs() - m0
			}
			r.heapMB += heapMB() / pipelineSeeds
			runtime.KeepAlive(prods)
		}
		rep.attempted += int64(len(outs) * pipelineRequests)
	}
	r.elapsed = time.Since(begin).Seconds()
	return r, nil
}

func runReproPipeline(o opts) (*report, error) {
	if o.trace {
		return tracePipeline(o)
	}
	rep := &report{metrics: map[string]float64{}}
	var thresholds []float64
	var setups, speeds []float64
	var setupMallocs uint64
	for i := 0; i < setupReps; i++ {
		heapMB()
		speeds = append(speeds, hostSpeed())
		m0 := mallocs()
		t0 := time.Now()
		th, err := calibrate(passSeed(o.seed, 0))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupMallocs = mallocs() - m0
		if thresholds != nil {
			rep.check(reflect.DeepEqual(th, thresholds), "repro-pipeline: calibration %d gave thresholds %v, calibration 0 gave %v", i, th, thresholds)
		}
		thresholds = th
	}
	heapMB()

	r, err := runPasses(rep, thresholds, o.seed, o.seconds, nil, nil, &passTiming{})
	if err != nil {
		return nil, err
	}

	speed := median(append(speeds, r.speeds...))
	rep.extra = map[string]any{"setup_s_all": setups, "req_per_s_passes": r.rates, "host_speed": speed, "timed_s": r.elapsed}
	gate(rep, pipelineSimulated(r.passes), pipelineGated)
	calibrated := float64(len(thresholds) * pipelineRequests)
	segment := float64(pipelineSeeds * len(thresholds) * pipelineRequests)
	rep.metrics["setup_s"] = median(setups) * speed
	rep.metrics["req_per_s"] = float64(r.requests) / r.busy / speed
	rep.metrics["live_heap_mb"] = r.heapMB
	rep.metrics["allocs_per_req"] = float64(setupMallocs+r.mallocs) / (calibrated + segment)
	rep.outcome = map[string]any{"thresholds": thresholds, "passes": r.passes}
	return rep, nil
}
