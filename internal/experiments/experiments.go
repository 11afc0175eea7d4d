// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a function returning a structured result
// with a printable rendering; cmd/rbvrepro runs them from the command line
// and the repository-root benchmarks time them.
//
// Absolute numbers differ from the paper's (the substrate is a calibrated
// simulator, not the authors' Xeon 5160 testbed); what each experiment
// preserves — and what EXPERIMENTS.md records — is the paper's shape: who
// wins, by roughly what factor, and where the crossovers fall.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config scales and seeds the experiment suite.
type Config struct {
	// Seed drives all randomness; equal seeds reproduce results exactly.
	Seed int64
	// Scale multiplies request counts. 1.0 is the default evaluation
	// scale; tests and quick runs use less.
	Scale float64
	// Obs, when non-nil, collects spans and counters across the suite:
	// registry entries open a span scope per experiment and every workload
	// run instruments its kernel and sampler (see package obs). Nil — the
	// default — leaves runs uninstrumented; results are identical either
	// way.
	Obs *obs.Collector
	// Topology, when non-nil, overrides the machine layout of every
	// multi-core run in the suite (runs that pin an explicit core count,
	// like Figure 1's solo-core calibration, keep it). Nil reproduces the
	// paper's 2×2-core box.
	Topology *machine.Topology
}

// Validate reports configuration errors, naming the offending field.
// Scale must be finite and positive: int conversion of a NaN or infinite
// product is undefined, and a non-positive scale has no meaning.
func (c Config) Validate() error {
	if !(c.Scale > 0) || math.IsInf(c.Scale, 1) {
		return fmt.Errorf("experiments: Config.Scale must be finite and positive, got %v", c.Scale)
	}
	return nil
}

// scaled returns n×Scale, at least min.
func (c Config) scaled(n, min int) int {
	v := int(float64(n) * c.Scale)
	if v < min {
		v = min
	}
	return v
}

// modelingRequests is the per-application request count for the modeling
// experiments, balancing statistical weight against the very different
// request lengths.
func (c Config) modelingRequests(app string) int {
	switch app {
	case "webserver":
		return c.scaled(600, 30)
	case "tpcc":
		return c.scaled(600, 30)
	case "tpch":
		return c.scaled(120, 20)
	case "rubis":
		return c.scaled(400, 30)
	case "webwork":
		return c.scaled(48, 12)
	default:
		return c.scaled(200, 20)
	}
}

// schedRequests sizes the contention-easing runs (Figures 12–13): the
// closed-loop system needs enough requests for a steady state in which the
// scheduler's choices, not the drain phase, dominate the measurement (the
// paper uses three 1000-request runs).
func (c Config) schedRequests(app string) int {
	n := c.modelingRequests(app)
	min := 150
	if app == "webwork" {
		min = 32
	}
	if n < min {
		n = min
	}
	return n
}

// appSet returns the five applications in the paper's order.
func appSet() []workload.App { return workload.All() }

// runTracked runs an application with its paper-standard periodic sampling.
// cores > 0 pins a homogeneous layout of that many cores (solo-core
// calibration); cores == 0 uses cfg.Topology, or the paper's default box.
func runTracked(cfg Config, app workload.App, cores, requests int) (*core.Result, error) {
	opts := []core.Option{core.WithSampling(core.DefaultSampling(app)), core.WithObserver(cfg.Obs)}
	switch {
	case cores > 0:
		per := 2
		if cores < per {
			per = cores
		}
		opts = append(opts, core.WithTopology(machine.Homogeneous(cores, per)))
	case cfg.Topology != nil:
		opts = append(opts, core.WithTopology(*cfg.Topology))
	}
	return core.Run(core.Options{
		App:      app,
		Requests: requests,
		Seed:     cfg.Seed,
	}, opts...)
}

// schedSampling is DefaultSampling without system call event retention. The
// scheduling experiments (Figures 12–13) consume measured periods and the
// co-execution meter only — never a trace's syscall stream — and their
// closed-loop request floors make that stream the dominant memory cost of a
// full-scale registry run. Discarding it changes no simulated event and no
// reported value.
func schedSampling(app workload.App) sampling.Config {
	s := core.DefaultSampling(app)
	s.DiscardSyscallEvents = true
	return s
}

// forEachIndex invokes fn for every index in [0, n): serially in order, or
// concurrently (bounded by GOMAXPROCS) when parallel is set. Concurrency
// only reorders wall-clock completion, never results: each fn owns its
// index's result slot and the caller aggregates in index order afterward,
// so outputs — including float summation order — are bit-identical to the
// serial path. On failure the lowest failing index's error is returned,
// again independent of completion order.
func forEachIndex(n int, parallel bool, fn func(int) error) error {
	if !parallel {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parallelizable reports whether concurrent core.Run calls are safe for
// this config. Each run owns its engine, kernel, and RNG streams, so runs
// never share simulation state; the only shared mutable object is the
// observability collector, whose scope stack assumes one runner — so
// instrumented configs stay serial.
func (c Config) parallelizable() bool { return c.Obs == nil }

// requestPeakCPI is the per-request 90-percentile CPI over its measured
// periods (a request property used by Figures 7).
func requestPeakCPI(tr *trace.Request) float64 {
	return tr.InsSeries(metrics.CPI).Percentile(90)
}

// summarize renders a float slice compactly for reports.
func summarize(xs []float64) string {
	if len(xs) == 0 {
		return "n/a"
	}
	return fmt.Sprintf("mean=%.3f p50=%.3f p90=%.3f max=%.3f",
		stats.Mean(xs), stats.Median(xs), stats.Percentile(xs, 90), stats.Max(xs))
}

// table renders rows of cells with aligned columns.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i >= len(widths) {
				break // ignore cells beyond the header
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
