// Command benchjson converts `go test -bench` output into JSON, so each
// PR can record a machine-readable perf snapshot (the BENCH_*.json
// trajectory) that later sessions diff against.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime=1x . | go run ./cmd/benchjson -out BENCH_abc123.json
//	go test -run '^$' -bench . -benchtime=1x . | go run ./cmd/benchjson -against BENCH_506f09d.json
//
// Every benchmark becomes an object with its iteration count, ns/op, and
// all custom metrics (including B/op and allocs/op when -benchmem is on);
// goos/goarch/cpu header lines are carried into the envelope. Repeated
// lines of one benchmark (`go test -count N`) fold into one object holding
// the median of each dimension over the lines that report it, so a single
// slow sample cannot decide a comparison.
//
// With -obs LIST (comma-separated registry names), benchjson additionally
// runs those experiments at -obs-scale under an observability collector and
// embeds each run report in the envelope, so the perf snapshot carries span
// totals and sampler-overhead accounting alongside the benchmark numbers.
// When stdin is a terminal (no piped bench output), parsing is skipped and
// the envelope holds only the observability reports.
//
// With -against FILE, the parsed results are additionally compared to the
// baseline snapshot in FILE: any benchmark slower than baseline ns/op ×
// -tolerance fails the run (exit 1). The default tolerance of 3× is the
// regression smoke (`make bench-smoke`): generous enough that scheduler
// noise and machine differences never trip it, tight enough that a gross
// perf regression — an accidental O(n²), a lost fast path — fails loudly.
// Benchmarks under -floor ns/op in the baseline are skipped (single-shot
// timings of sub-100µs benchmarks are dominated by noise).
//
// When the baseline and the fresh run both carry -benchmem columns, B/op
// and allocs/op are guarded the same way under their own -mem-tolerance
// factor (allocation counts are deterministic, but GC internals can shift
// across Go versions, so the factor stays generous). Baselines under
// -bytes-floor B/op or -allocs-floor allocs/op are skipped as noise.
//
// Custom benchmark metrics whose unit ends in "-ns" (the latency quantiles
// BenchmarkServeSteadyState reports via b.ReportMetric: p50-ns, p99-ns,
// p999-ns) are regressed too, under -metric-tolerance with baselines below
// -metric-floor skipped — single-shot tail quantiles are the noisiest
// dimension, so the default factor is the most generous.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the JSON envelope.
type Report struct {
	GeneratedAt string      `json:"generated_at"`
	GoOS        string      `json:"goos,omitempty"`
	GoArch      string      `json:"goarch,omitempty"`
	Pkg         string      `json:"pkg,omitempty"`
	CPU         string      `json:"cpu,omitempty"`
	Benchmarks  []Benchmark `json:"benchmarks"`
	// Obs carries observability run reports for the experiments named by
	// -obs, keyed by collector label (one report per experiment run).
	Obs []*obs.Report `json:"obs,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], stdinOrEmpty(), os.Stdout, os.Stderr))
}

// run is the testable entry point: flag and lookup errors exit 2, I/O
// failures and baseline regressions exit 1.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "output file (default stdout)")
	obsList := fs.String("obs", "", "comma-separated registry experiments to run under a collector")
	obsScale := fs.Float64("obs-scale", 0.1, "request-count scale for -obs runs")
	obsSeed := fs.Int64("obs-seed", 1, "seed for -obs runs")
	against := fs.String("against", "", "baseline BENCH_*.json to compare parsed results to")
	tolerance := fs.Float64("tolerance", 3, "fail when a benchmark exceeds baseline ns/op times this factor")
	floor := fs.Float64("floor", 100e3, "skip comparison for baselines below this many ns/op (noise)")
	memTolerance := fs.Float64("mem-tolerance", 3, "fail when a benchmark exceeds baseline B/op or allocs/op times this factor")
	bytesFloor := fs.Float64("bytes-floor", 1e6, "skip B/op comparison for baselines below this many bytes (noise)")
	allocsFloor := fs.Float64("allocs-floor", 10e3, "skip allocs/op comparison for baselines below this many allocations (noise)")
	metricTolerance := fs.Float64("metric-tolerance", 5, "fail when a custom *-ns metric exceeds baseline times this factor")
	metricFloor := fs.Float64("metric-floor", 1e3, "skip *-ns metric comparison for baselines below this many ns (noise)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	rep := Report{GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	if *obsList != "" {
		reports, err := runObs(*obsList, *obsScale, *obsSeed)
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 2
		}
		rep.Obs = reports
	}
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(stderr, "benchjson: read: %v\n", err)
		return 1
	}
	rep.Benchmarks = foldRepeats(rep.Benchmarks)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: marshal: %v\n", err)
		return 1
	}
	enc = append(enc, '\n')
	if *out == "" {
		stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	} else {
		fmt.Fprintf(stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
	}

	if *against != "" {
		tol := tolerances{
			Ns: *tolerance, NsFloor: *floor,
			Mem: *memTolerance, BytesFloor: *bytesFloor, AllocsFloor: *allocsFloor,
			Metric: *metricTolerance, MetricFloor: *metricFloor,
		}
		if err := compareBaseline(rep, *against, tol, stderr); err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
	}
	return 0
}

// foldRepeats merges the lines of each benchmark name into one entry, in
// order of first appearance: iterations, ns/op and every metric become the
// median of the values the lines report (the mean of the middle two for an
// even count). A benchmark run once is returned unchanged.
func foldRepeats(bs []Benchmark) []Benchmark {
	var names []string
	runs := map[string][]Benchmark{}
	for _, b := range bs {
		if _, ok := runs[b.Name]; !ok {
			names = append(names, b.Name)
		}
		runs[b.Name] = append(runs[b.Name], b)
	}
	out := make([]Benchmark, 0, len(names))
	for _, name := range names {
		lines := runs[name]
		b := lines[0]
		if len(lines) > 1 {
			var iters, ns []float64
			metrics := map[string][]float64{}
			for _, l := range lines {
				iters = append(iters, float64(l.Iterations))
				ns = append(ns, l.NsPerOp)
				for unit, v := range l.Metrics { // maporder:ok appends into per-unit lists; order within a list is irrelevant to the median
					metrics[unit] = append(metrics[unit], v)
				}
			}
			b.Iterations, b.NsPerOp = int64(stats.Median(iters)), stats.Median(ns)
			b.Metrics = nil
			if len(metrics) > 0 {
				b.Metrics = make(map[string]float64, len(metrics))
			}
			for unit, vs := range metrics { // maporder:ok writes one key per unit
				b.Metrics[unit] = stats.Median(vs)
			}
		}
		out = append(out, b)
	}
	return out
}

// tolerances bundles the -against comparison factors and noise floors.
type tolerances struct {
	Ns, NsFloor                  float64
	Mem, BytesFloor, AllocsFloor float64
	Metric, MetricFloor          float64
}

// compareBaseline diffs the fresh results against a recorded snapshot and
// errors when any shared benchmark regressed beyond the tolerance factors
// (wall time, allocated bytes, and allocation counts each under their own
// factor and noise floor). Benchmarks present on only one side are reported
// but never fail the comparison — suites evolve; gross slowdowns are the
// target.
func compareBaseline(rep Report, path string, tol tolerances, stderr io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	baseBench := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseBench[b.Name] = b
	}
	var regressions, compared, skipped int
	// check compares one dimension of one benchmark against the baseline,
	// tallying into the counters above. A dimension absent from both sides
	// (e.g. no -benchmem columns) is not a comparison at all.
	check := func(name, unit string, got, want, factor, floor float64) {
		switch {
		case got == 0 && want == 0:
		case want < floor || got == 0:
			skipped++
		case got > want*factor:
			regressions++
			fmt.Fprintf(stderr, "benchjson: REGRESSION %s: %.0f %s vs baseline %.0f (%.1fx > %.1fx tolerance)\n",
				name, got, unit, want, got/want, factor)
		default:
			compared++
		}
	}
	seen := map[string]bool{}
	for _, b := range rep.Benchmarks {
		seen[b.Name] = true
		want, ok := baseBench[b.Name]
		if !ok {
			fmt.Fprintf(stderr, "benchjson: new benchmark %s (no baseline)\n", b.Name)
			continue
		}
		check(b.Name, "ns/op", b.NsPerOp, want.NsPerOp, tol.Ns, tol.NsFloor)
		// Memory dimensions only exist when both sides ran -benchmem.
		check(b.Name, "B/op", b.Metrics["B/op"], want.Metrics["B/op"], tol.Mem, tol.BytesFloor)
		check(b.Name, "allocs/op", b.Metrics["allocs/op"], want.Metrics["allocs/op"], tol.Mem, tol.AllocsFloor)
		// Custom latency metrics (b.ReportMetric with a *-ns unit) are
		// regressed against the same baseline entry. Keys come from the
		// baseline in sorted order so the report is stable.
		for _, unit := range sortedKeys(want.Metrics) {
			if strings.HasSuffix(unit, "-ns") {
				check(b.Name, unit, b.Metrics[unit], want.Metrics[unit], tol.Metric, tol.MetricFloor)
			}
		}
	}
	for _, b := range base.Benchmarks {
		if !seen[b.Name] {
			fmt.Fprintf(stderr, "benchjson: baseline benchmark %s not in this run\n", b.Name)
		}
	}
	fmt.Fprintf(stderr, "benchjson: baseline %s: %d compared, %d under floor, %d regressions\n",
		path, compared, skipped, regressions)
	if regressions > 0 {
		return fmt.Errorf("%d benchmark dimensions regressed beyond tolerance", regressions)
	}
	return nil
}

// sortedKeys returns a map's keys in sorted order (rendered tables and
// comparison reports must never depend on map iteration order).
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // maporder:ok sorted immediately below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// stdinOrEmpty returns stdin, or an empty reader when stdin is an
// interactive terminal (running `benchjson -obs ...` with nothing piped
// must not hang waiting for bench output).
func stdinOrEmpty() io.Reader {
	if st, err := os.Stdin.Stat(); err == nil && st.Mode()&os.ModeCharDevice != 0 {
		return strings.NewReader("")
	}
	return os.Stdin
}

// runObs runs the named registry experiments, each under its own
// collector, and returns the resulting run reports in request order.
func runObs(list string, scale float64, seed int64) ([]*obs.Report, error) {
	var reports []*obs.Report
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		e, ok := experiments.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)",
				name, strings.Join(experiments.Names(), ","))
		}
		col := obs.New(name)
		if _, err := e.Run(experiments.Config{Seed: seed, Scale: scale, Obs: col}); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		reports = append(reports, col.Report())
	}
	return reports, nil
}

// parseLine parses one result line, e.g.
//
//	BenchmarkIdentify/naive-8  79  15362246 ns/op  3.00 some-metric  0 B/op
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0]}
	// A trailing -N on the name is the GOMAXPROCS suffix.
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], procs
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	// The remainder alternates value / unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = v
			continue
		}
		if b.Metrics == nil {
			b.Metrics = make(map[string]float64)
		}
		b.Metrics[unit] = v
	}
	return b, true
}
