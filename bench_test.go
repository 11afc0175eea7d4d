// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (one benchmark per table/figure, reporting the
// experiment's headline quantity as a custom metric) plus ablation
// benchmarks for the design choices DESIGN.md calls out.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks use a reduced request-count scale so a full sweep completes in
// minutes; cmd/rbvrepro runs the full-scale evaluation.
package repro_test

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/sampling"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchCfg scales the experiments down for benchmarking.
var benchCfg = experiments.Config{Seed: 1, Scale: 0.15}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range r.Apps {
			if a.App == "tpch" {
				b.ReportMetric(a.ConcurrentP90/a.SerialP90, "tpch-p90-ratio")
			}
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure2(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		var cov float64
		for _, q := range r.Requests {
			cov += q.CPICoV
		}
		b.ReportMetric(cov/float64(len(r.Requests)), "mean-intra-CoV")
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].TimeCostNs, "kernel-sample-ns")
		b.ReportMetric(r.Rows[2].TimeCostNs, "intr-sample-ns")
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range r.Apps {
			if a.App == "tpch" {
				b.ReportMetric(a.WithIntra[metrics.CPI]/a.InterOnly[metrics.CPI], "tpch-intra-gain")
			}
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure4(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range r.Apps {
			if a.App == "webserver" {
				b.ReportMetric(a.At(16)*100, "web-pct-within-16us")
			}
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		var saving float64
		for _, a := range r.Apps {
			saving += (1 - a.Normalized) * 100
		}
		b.ReportMetric(saving/float64(len(r.Apps)), "mean-saving-pct")
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if s, ok := r.Signal("writev"); ok {
			b.ReportMetric(s.Mean, "writev-cpi-change")
		}
		b.ReportMetric(r.SignalCoV/r.UniformCoV, "signal-cov-gain")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure6(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Ratio, "l1-overestimation")
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Mean("DTW+asynchrony-penalty", false)*100, "dtwpen-divergence-pct")
		b.ReportMetric(r.Mean("DTW-CPI-variations", false)*100, "plaindtw-divergence-pct")
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Comparison.Analysis.MissCorrelation, "cpi-miss-correlation")
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure9(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Comparison.Analysis.RefsExcess, "refs-excess")
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure10(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		var pat, avg float64
		for _, a := range r.Apps {
			pat += a.FinalErr(true)
			avg += a.FinalErr(false)
		}
		n := float64(len(r.Apps))
		b.ReportMetric(pat/n*100, "pattern-final-err-pct")
		b.ReportMetric(avg/n*100, "average-final-err-pct")
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure11(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range r.Apps {
			if a.App == "tpch" {
				b.ReportMetric(a.RMSE["request average"]/a.RMSE[a.Best()], "tpch-avg-vs-best")
			}
		}
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure12(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Apps[0].Reduction()*100, "tpch-4high-reduction-pct")
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure13(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Apps[0].WorstCaseReduction()*100, "tpch-p999-reduction-pct")
	}
}

// BenchmarkPairwiseMatrix measures the pairwise-distance engine on a
// 200-request population of CPI-like patterns under the paper's
// asynchrony-penalized DTW: the serial fill vs the GOMAXPROCS worker pool
// (the speedup target is ≥3× at GOMAXPROCS ≥ 4). Both legs report
// ns/cell, host time over the Σ len_i·len_j DP cells of all pairs. A
// one-time check asserts the parallel matrix is element-for-element
// identical to the serial one.
func BenchmarkPairwiseMatrix(b *testing.B) {
	const population = 200
	g := sim.NewRNG(42)
	seqs := make([][]float64, population)
	for i := range seqs {
		n := 48 + g.Intn(33) // resampled pattern lengths vary per request
		s := make([]float64, n)
		cpi := 2.0
		for j := range s {
			cpi += g.Normal(0, 0.15)
			if cpi < 0.5 {
				cpi = 0.5
			}
			s[j] = cpi
		}
		seqs[i] = s
	}
	d := distance.DTW{AsyncPenalty: 0.5}
	var cells float64
	for i := range seqs {
		for j := i + 1; j < population; j++ {
			cells += float64(len(seqs[i]) * len(seqs[j]))
		}
	}
	perCell := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(cells*float64(b.N)), "ns/cell")
	}

	serial := distance.NewMatrixFromSequences(seqs, d, distance.MatrixOptions{Workers: 1})
	parallel := distance.NewMatrixFromSequences(seqs, d, distance.MatrixOptions{})
	for i := 0; i < population; i++ {
		for j := 0; j < population; j++ {
			if serial.At(i, j) != parallel.At(i, j) {
				b.Fatalf("parallel matrix differs at (%d,%d): %v vs %v",
					i, j, parallel.At(i, j), serial.At(i, j))
			}
		}
	}

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			distance.NewMatrixFromSequences(seqs, d, distance.MatrixOptions{Workers: 1})
		}
		perCell(b)
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		for i := 0; i < b.N; i++ {
			distance.NewMatrixFromSequences(seqs, d, distance.MatrixOptions{})
		}
		perCell(b)
	})
}

// --- Ablations (DESIGN.md section 5) ---

// BenchmarkAblationContention quantifies design choice 1: disabling the
// analytic contention model collapses the 4-core CPI spread back to the
// 1-core clusters (Figure 1's phenomenon disappears).
func BenchmarkAblationContention(b *testing.B) {
	app := workload.NewTPCH()
	for i := 0; i < b.N; i++ {
		withC, err := core.Run(core.Options{
			App: app, Requests: 20, Sampling: core.DefaultSampling(app), Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		without, err := core.Run(core.Options{
			App: app, Requests: 20, Sampling: core.DefaultSampling(app), Seed: 1,
			NoContention: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		on := stats.Percentile(withC.Store.MetricValues(metrics.CPI), 90)
		off := stats.Percentile(without.Store.MetricValues(metrics.CPI), 90)
		b.ReportMetric(on/off, "contention-p90-inflation")
	}
}

// BenchmarkAblationDTWPenalty quantifies design choice 2: without the
// asynchrony penalty, dynamic time warping under-estimates request
// differences and classification quality collapses (Figure 7's claim).
func BenchmarkAblationDTWPenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7(experiments.Config{Seed: 1, Scale: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		pen := r.Mean("DTW+asynchrony-penalty", false)
		plain := r.Mean("DTW-CPI-variations", false)
		if pen == 0 {
			pen = 1e-9
		}
		b.ReportMetric(plain/pen, "penalty-quality-gain")
	}
}

// BenchmarkAblationVaEWMA quantifies design choice 3: variable aging vs the
// plain EWMA on irregular-length observations.
func BenchmarkAblationVaEWMA(b *testing.B) {
	g := sim.NewRNG(7)
	// A two-level signal observed with wildly varying period lengths, and
	// measurement noise that shrinks with period length (short periods are
	// noisy). The plain EWMA weighs a 50 µs burst sample as much as a 1 ms
	// one; variable aging weighs each by its length, which is the point of
	// Equation 5.
	type obs struct{ v, l float64 }
	var series []obs
	level := 0.01
	for i := 0; i < 5000; i++ {
		if g.Bool(0.02) {
			level = g.Uniform(0.005, 0.05)
		}
		l := g.Exp(1.0) + 0.05
		noise := g.Normal(0, 0.004/math.Sqrt(l))
		series = append(series, obs{level + noise, l})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ew := predict.NewEWMA(0.6)
		va := predict.NewVaEWMA(0.6, 1)
		var ewErr, vaErr, w float64
		for _, o := range series {
			de := ew.Predict() - o.v
			dv := va.Predict() - o.v
			ewErr += o.l * de * de
			vaErr += o.l * dv * dv
			w += o.l
			ew.Observe(o.v, o.l)
			va.Observe(o.v, o.l)
		}
		b.ReportMetric(ewErr/vaErr, "ewma-vs-vaewma-mse")
		_ = w
	}
}

// BenchmarkAblationCompensation quantifies design choice 4: the "do no
// harm" observer-effect compensation's bias reduction at fine sampling.
func BenchmarkAblationCompensation(b *testing.B) {
	app := workload.NewWebServer()
	for i := 0; i < b.N; i++ {
		run := func(comp bool) float64 {
			scfg := core.DefaultSampling(app)
			scfg.Compensate = comp
			res, err := core.Run(core.Options{
				App: app, Requests: 60, Sampling: scfg, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			return stats.Mean(res.Store.MetricValues(metrics.CPI))
		}
		b.ReportMetric(run(false)/run(true), "uncompensated-cpi-bias")
	}
}

// BenchmarkAblationBackupTimer quantifies design choice 5: without the
// backup interrupt, syscall-triggered sampling loses coverage on
// system-call-sparse applications (WeBWorK, whose syscall gaps average
// ~0.6 ms and often exceed the backup window used here).
func BenchmarkAblationBackupTimer(b *testing.B) {
	app := workload.NewWeBWorK()
	for i := 0; i < b.N; i++ {
		with := sampling.Config{
			Mode:        sampling.SyscallTriggered,
			TsyscallMin: 200 * sim.Microsecond,
			TbackupInt:  500 * sim.Microsecond,
			Compensate:  true,
		}
		without := with
		without.TbackupInt = 0
		run := func(scfg sampling.Config) uint64 {
			res, err := core.Run(core.Options{
				App: app, Requests: 4, Sampling: scfg, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Samples.Total()
		}
		b.ReportMetric(float64(run(with))/float64(run(without)), "backup-coverage-gain")
	}
}

// BenchmarkAblationTopology compares the paper's topology-blind
// contention-easing policy against the topology-aware extension on the
// worst-case (p99) request CPI.
func BenchmarkAblationTopology(b *testing.B) {
	app := workload.NewTPCH()
	base, err := core.Run(core.Options{
		App: app, Requests: 40, Sampling: core.DefaultSampling(app), Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	threshold := sched.HighUsageThreshold(base.Store, 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := func(policy string) float64 {
			res, err := core.Run(core.Options{
				App: app, Requests: 40, Sampling: core.DefaultSampling(app),
				PolicyName: policy, UsageThreshold: threshold, Seed: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			return stats.Percentile(res.Store.MetricValues(metrics.CPI), 99)
		}
		paper := run("contention-easing")
		topo := run("topology-aware")
		b.ReportMetric(paper/topo, "paper-vs-topo-p99")
	}
}

// BenchmarkAblationSwitchPollution quantifies the context-switch cache
// pollution cost model: without it, frequent 5 ms re-scheduling is free and
// the scheduler's keep-current-at-head rule stops mattering.
func BenchmarkAblationSwitchPollution(b *testing.B) {
	app := workload.NewTPCH()
	for i := 0; i < b.N; i++ {
		run := func(noPollution bool) float64 {
			res, err := core.Run(core.Options{
				App: app, Requests: 20, Sampling: core.DefaultSampling(app), Seed: 1,
				NoSwitchPollution: noPollution,
			})
			if err != nil {
				b.Fatal(err)
			}
			return stats.Mean(res.Store.MetricValues(metrics.CPI))
		}
		b.ReportMetric(run(false)/run(true), "pollution-cpi-cost")
	}
}
