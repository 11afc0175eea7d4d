package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU @ 2.00GHz
BenchmarkIdentify/naive-8         	       1	14700000 ns/op
BenchmarkIdentify/cascaded-8      	       1	 1100000 ns/op	       5.00 pruned/op
BenchmarkPairwiseMatrix/serial-8  	       1	  900000 ns/op	     256 B/op	       3 allocs/op
not a benchmark line
`

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkIdentify/naive-8  79  15362246 ns/op  3.00 x/op  128 B/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if b.Name != "BenchmarkIdentify/naive" || b.Procs != 8 || b.Iterations != 79 {
		t.Fatalf("parsed %+v", b)
	}
	if b.NsPerOp != 15362246 || b.Metrics["x/op"] != 3 || b.Metrics["B/op"] != 128 {
		t.Fatalf("metrics %+v", b)
	}
}

func TestRunParsesToJSON(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run(nil, strings.NewReader(sampleBench), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.GoOS != "linux" || rep.CPU != "Test CPU @ 2.00GHz" || len(rep.Benchmarks) != 3 {
		t.Fatalf("envelope %+v", rep)
	}
}

func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out, errBuf bytes.Buffer
	code := run([]string{"-out", path}, strings.NewReader(sampleBench), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("wrote %d benchmarks", len(rep.Benchmarks))
	}
}

func TestRunBadFlagExitsTwo(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-no-such-flag"}, strings.NewReader(""), &out, &errBuf); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunObsUnknownExperimentExitsTwo(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-obs", "fig99"}, strings.NewReader(""), &out, &errBuf)
	if code != 2 || !strings.Contains(errBuf.String(), "valid:") {
		t.Fatalf("exit %d stderr %q", code, errBuf.String())
	}
}

// -obs embeds one observability run report per named experiment in the
// envelope, alongside whatever bench output was piped in.
func TestRunObsEmbedsRunReport(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-obs", "faultanomaly", "-obs-scale", "0.05"}, strings.NewReader(sampleBench), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Obs) != 1 || rep.Obs[0].Label != "faultanomaly" {
		t.Fatalf("obs reports %+v", rep.Obs)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("bench parsing lost alongside -obs: %d", len(rep.Benchmarks))
	}
}

// writeBaseline records a baseline snapshot with the given ns/op values.
func writeBaseline(t *testing.T, values map[string]float64) string {
	t.Helper()
	var base Report
	for name, ns := range values {
		base.Benchmarks = append(base.Benchmarks, Benchmark{Name: name, Iterations: 1, NsPerOp: ns})
	}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAgainstPassesWithinTolerance(t *testing.T) {
	base := writeBaseline(t, map[string]float64{
		"BenchmarkIdentify/naive":        14000000,
		"BenchmarkIdentify/cascaded":     600000, // fresh run is ~1.8x: inside 3x
		"BenchmarkPairwiseMatrix/serial": 500000,
		"BenchmarkRemoved":               2000000, // missing from this run: reported, not fatal
	})
	var out, errBuf bytes.Buffer
	code := run([]string{"-against", base}, strings.NewReader(sampleBench), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "BenchmarkRemoved not in this run") {
		t.Fatalf("missing-benchmark note absent: %s", errBuf.String())
	}
}

func TestAgainstFailsOnGrossRegression(t *testing.T) {
	base := writeBaseline(t, map[string]float64{
		"BenchmarkIdentify/naive": 1000000, // fresh run is 14.7x slower
	})
	var out, errBuf bytes.Buffer
	code := run([]string{"-against", base}, strings.NewReader(sampleBench), &out, &errBuf)
	if code != 1 {
		t.Fatalf("exit %d, want 1 for a 14x regression", code)
	}
	if !strings.Contains(errBuf.String(), "REGRESSION BenchmarkIdentify/naive") {
		t.Fatalf("regression not named: %s", errBuf.String())
	}
}

// Sub-floor baselines are noise at -benchtime=1x and never fail the
// comparison, however large the ratio looks.
func TestAgainstSkipsSubFloorBaselines(t *testing.T) {
	base := writeBaseline(t, map[string]float64{
		"BenchmarkIdentify/naive": 50, // 50ns baseline: under the 100µs floor
	})
	var out, errBuf bytes.Buffer
	code := run([]string{"-against", base}, strings.NewReader(sampleBench), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "1 under floor") {
		t.Fatalf("floor skip not reported: %s", errBuf.String())
	}
}

// writeBenchBaseline records a baseline snapshot from full Benchmark
// entries (ns/op plus -benchmem metrics).
func writeBenchBaseline(t *testing.T, benchmarks []Benchmark) string {
	t.Helper()
	data, err := json.Marshal(Report{Benchmarks: benchmarks})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// An allocation-count blowup must fail the gate even when wall time stays
// within tolerance — the alloc leg exists precisely because ns/op noise
// tolerances are too loose to catch a lost pooling fast path.
func TestAgainstFailsOnAllocRegression(t *testing.T) {
	base := writeBenchBaseline(t, []Benchmark{{
		Name: "BenchmarkPairwiseMatrix/serial", Iterations: 1, NsPerOp: 850000,
		Metrics: map[string]float64{"B/op": 200, "allocs/op": 500000},
	}})
	// The fresh run's 3 allocs/op against a 500k baseline is an
	// improvement, never a regression.
	var out, errBuf bytes.Buffer
	code := run([]string{"-against", base, "-allocs-floor", "1"}, strings.NewReader(sampleBench), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}

	base = writeBenchBaseline(t, []Benchmark{{
		Name: "BenchmarkPairwiseMatrix/serial", Iterations: 1, NsPerOp: 850000,
		Metrics: map[string]float64{"B/op": 250, "allocs/op": 0.5},
	}})
	out.Reset()
	errBuf.Reset()
	code = run([]string{"-against", base, "-allocs-floor", "0.1", "-bytes-floor", "1"}, strings.NewReader(sampleBench), &out, &errBuf)
	if code != 1 {
		t.Fatalf("exit %d, want 1 for a 6x allocs/op regression: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "allocs/op") {
		t.Fatalf("alloc regression not named: %s", errBuf.String())
	}
}

// Memory dimensions sit under their own floors: a large relative change on
// a tiny absolute baseline is noise, not a regression.
func TestAgainstSkipsSubFloorMemBaselines(t *testing.T) {
	base := writeBenchBaseline(t, []Benchmark{{
		Name: "BenchmarkPairwiseMatrix/serial", Iterations: 1, NsPerOp: 850000,
		Metrics: map[string]float64{"B/op": 1, "allocs/op": 1},
	}})
	var out, errBuf bytes.Buffer
	code := run([]string{"-against", base}, strings.NewReader(sampleBench), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "2 under floor") {
		t.Fatalf("mem floor skips not reported: %s", errBuf.String())
	}
}

// Custom *-ns metrics (the serve benchmark's latency quantiles) regress
// under their own tolerance and floor; other custom units are ignored.
func TestAgainstRegressesCustomNsMetrics(t *testing.T) {
	const freshBench = `BenchmarkServeSteadyState/serial-8  1  700000000 ns/op  9000 p99-ns  40000 p999-ns  1.5 Mreq/s  0 B/op  0 allocs/op
`
	base := writeBenchBaseline(t, []Benchmark{{
		Name: "BenchmarkServeSteadyState/serial", Iterations: 1, NsPerOp: 690000000,
		Metrics: map[string]float64{"p99-ns": 1500, "p999-ns": 39000, "Mreq/s": 1.4, "B/op": 0, "allocs/op": 0},
	}})
	// p99 blew up 6x against a 1.5µs baseline: over the 5x default factor.
	var out, errBuf bytes.Buffer
	code := run([]string{"-against", base}, strings.NewReader(freshBench), &out, &errBuf)
	if code != 1 {
		t.Fatalf("exit %d, want 1 for a 6x p99-ns regression: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "p99-ns") {
		t.Fatalf("p99 regression not named: %s", errBuf.String())
	}

	// The same run passes with a looser factor; Mreq/s (not a -ns metric)
	// never participates even though it moved.
	out.Reset()
	errBuf.Reset()
	code = run([]string{"-against", base, "-metric-tolerance", "10"}, strings.NewReader(freshBench), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}

	// Sub-floor latency baselines are noise: a 1.5µs p99 with a raised
	// floor skips rather than fails.
	out.Reset()
	errBuf.Reset()
	code = run([]string{"-against", base, "-metric-floor", "10e3"}, strings.NewReader(freshBench), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
}

// Repeated lines of one benchmark (-count 5) fold into the median of each
// dimension before the comparison: one 20x sample among five does not fail
// the gate, while a slowdown every sample shows still does.
func TestRepeatedLinesFoldToMedian(t *testing.T) {
	const repeated = `BenchmarkFigure6-8  1  1000000 ns/op  10 B/op  4 allocs/op
BenchmarkFigure6-8  1  20000000 ns/op  10 B/op  4 allocs/op
BenchmarkOther-8  3  500 ns/op
BenchmarkFigure6-8  1  1200000 ns/op  12 B/op  4 allocs/op
BenchmarkFigure6-8  2  900000 ns/op  10 B/op  5 allocs/op
BenchmarkFigure6-8  1  1100000 ns/op  30 B/op  4 allocs/op
`
	var out, errBuf bytes.Buffer
	if code := run(nil, strings.NewReader(repeated), &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 || rep.Benchmarks[0].Name != "BenchmarkFigure6" || rep.Benchmarks[1].Name != "BenchmarkOther" {
		t.Fatalf("folded benchmarks %+v, want Figure6 then Other", rep.Benchmarks)
	}
	fig := rep.Benchmarks[0]
	if fig.Iterations != 1 || fig.NsPerOp != 1100000 || fig.Metrics["B/op"] != 10 || fig.Metrics["allocs/op"] != 4 {
		t.Fatalf("folded Figure6 %+v, want the per-dimension medians", fig)
	}
	if other := rep.Benchmarks[1]; other.Iterations != 3 || other.NsPerOp != 500 || other.Metrics != nil {
		t.Fatalf("single-line benchmark changed by folding: %+v", other)
	}

	base := writeBaseline(t, map[string]float64{"BenchmarkFigure6": 1000000})
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-against", base}, strings.NewReader(repeated), &out, &errBuf); code != 0 {
		t.Fatalf("one outlier sample failed the gate: exit %d: %s", code, errBuf.String())
	}
	base = writeBaseline(t, map[string]float64{"BenchmarkFigure6": 300000})
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-against", base}, strings.NewReader(repeated), &out, &errBuf); code != 1 ||
		!strings.Contains(errBuf.String(), "REGRESSION BenchmarkFigure6: 1100000 ns/op") {
		t.Fatalf("a 3.7x median slowdown passed: exit %d: %s", code, errBuf.String())
	}
}

func TestAgainstMissingBaselineFileExitsOne(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-against", filepath.Join(t.TempDir(), "nope.json")}, strings.NewReader(sampleBench), &out, &errBuf)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

// TestAgainstCommittedBaselineParses guards the committed snapshot the
// regression smoke compares against: it must stay parseable and keep the
// benchmarks `make bench-smoke` relies on.
func TestAgainstCommittedBaselineParses(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_506f09d.json")
	if err != nil {
		t.Fatal(err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.Benchmarks) == 0 {
		t.Fatal("committed baseline holds no benchmarks")
	}
	var overFloor int
	for _, b := range base.Benchmarks {
		if b.NsPerOp >= 100e3 {
			overFloor++
		}
	}
	if overFloor < 5 {
		t.Fatalf("only %d baseline benchmarks clear the comparison floor", overFloor)
	}
}
