package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/signature"
	"repro/internal/trace"
)

// Figure10App holds one application's online identification accuracy
// curves: prediction error (fraction of requests whose CPU usage class —
// above or below the median — was predicted wrongly) at each progress step.
type Figure10App struct {
	App string
	// UnitIns is the progress step in instructions (the paper: 10,000 for
	// the web server up to 1M for TPCH/WeBWorK).
	UnitIns float64
	// Steps are the evaluated progress multiples (1..10).
	Steps []int
	// PatternErr is the variation-pattern signature approach; AverageErr
	// the average-metric-value signature; PastErr the past-requests
	// baseline (constant across progress).
	PatternErr, AverageErr []float64
	PastErr                float64
	// TestRequests is the evaluation set size.
	TestRequests int
}

// Figure10Result reproduces Figure 10: effectiveness of online request
// signature identification and CPU usage prediction.
type Figure10Result struct {
	Apps []Figure10App
}

// figure10Unit is the per-application progress unit, following the paper's
// X axes.
func figure10Unit(app string) float64 {
	switch app {
	case "webserver":
		return 10e3
	case "tpcc":
		return 300e3
	case "tpch":
		return 1e6
	case "rubis":
		return 200e3
	case "webwork":
		return 1e6
	default:
		return 100e3
	}
}

// Figure10 builds a signature bank per application from the first portion
// of the traced requests (the paper uses 500 representative signatures) and
// evaluates prediction accuracy on the remainder at increasing execution
// progress.
func Figure10(cfg Config) (*Figure10Result, error) {
	out := &Figure10Result{}
	for _, app := range appSet() {
		n := cfg.modelingRequests(app.Name())
		res, err := runTracked(cfg, app, 0, n)
		if err != nil {
			return nil, fmt.Errorf("figure10 %s: %w", app.Name(), err)
		}
		traces := res.Store.Traces
		bankSize := len(traces) * 2 / 3
		if bankSize < 2 {
			return nil, fmt.Errorf("figure10 %s: too few traces (%d)", app.Name(), len(traces))
		}
		unit := figure10Unit(app.Name())
		bank := signature.Build(traces[:bankSize], metrics.L2RefsPerIns, unit, 500)
		test := traces[bankSize:]

		fa := Figure10App{App: app.Name(), UnitIns: unit, TestRequests: len(test)}
		past := signature.NewPastRequests(10)

		// Past-requests baseline: predict each test request from the 10
		// preceding completions (warm the window with the bank's tail).
		pastWrong := 0
		for i, tr := range traces {
			if i >= bankSize {
				actual := float64(tr.CPUTime()) > bank.ThresholdNs
				if past.PredictHigh(bank.ThresholdNs) != actual {
					pastWrong++
				}
			}
			past.Observe(float64(tr.CPUTime()))
		}
		if len(test) > 0 {
			fa.PastErr = float64(pastWrong) / float64(len(test))
		}

		// Pattern identification runs through the streaming fast path: one
		// in-flight session per test request, held across progress steps so
		// each step's matching is incremental. Workers touch only their own
		// request's session. Sessions return exactly what IdentifyPattern
		// returns for the same prefix, so the curves are unchanged.
		matcher := signature.NewMatcher(bank)
		sessions := make([]*signature.Session, len(test))
		for i := range sessions {
			sessions[i] = matcher.NewSession()
			sessions[i].SetObserver(cfg.Obs)
		}
		for step := 1; step <= 10; step++ {
			progress := float64(step) * unit
			var patWrong, avgWrong atomic.Int64
			err := forEachIndex(len(test), cfg.parallelizable(), func(i int) error {
				tr := test[i]
				actual := float64(tr.CPUTime()) > bank.ThresholdNs
				prefix := prefixPattern(tr, metrics.L2RefsPerIns, progress, unit)
				sessions[i].Update(prefix)
				if bank.HighUsage(sessions[i].Best()) != actual {
					patWrong.Add(1)
				}
				avg := prefixAverage(tr, metrics.L2RefsPerIns, progress)
				if bank.PredictHighUsageByAverage(avg) != actual {
					avgWrong.Add(1)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			fa.Steps = append(fa.Steps, step)
			fa.PatternErr = append(fa.PatternErr, float64(patWrong.Load())/float64(len(test)))
			fa.AverageErr = append(fa.AverageErr, float64(avgWrong.Load())/float64(len(test)))
		}
		out.Apps = append(out.Apps, fa)
	}
	return out, nil
}

// prefixPattern resamples the leading progress instructions of a trace.
func prefixPattern(tr *trace.Request, m metrics.Metric, progress, bucket float64) []float64 {
	return tr.InsSeries(m).Prefix(progress).Resample(bucket)
}

// prefixAverage is the length-weighted metric average over the prefix.
func prefixAverage(tr *trace.Request, m metrics.Metric, progress float64) float64 {
	return tr.InsSeries(m).Prefix(progress).WeightedMean()
}

// FinalErr returns an approach's error at the last progress step.
func (a Figure10App) FinalErr(pattern bool) float64 {
	if len(a.PatternErr) == 0 {
		return 0
	}
	if pattern {
		return a.PatternErr[len(a.PatternErr)-1]
	}
	return a.AverageErr[len(a.AverageErr)-1]
}

// String renders the error curves.
func (r *Figure10Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 10: online signature identification prediction error\n")
	for _, a := range r.Apps {
		fmt.Fprintf(&b, "\n%s (unit %.0f ins, %d test requests, past-requests baseline %.0f%%):\n",
			a.App, a.UnitIns, a.TestRequests, a.PastErr*100)
		var rows [][]string
		for i, s := range a.Steps {
			rows = append(rows, []string{
				fmt.Sprintf("%d", s),
				fmt.Sprintf("%.0f%%", a.PatternErr[i]*100),
				fmt.Sprintf("%.0f%%", a.AverageErr[i]*100),
			})
		}
		b.WriteString(table([]string{"progress", "variation signature", "average signature"}, rows))
	}
	return b.String()
}
