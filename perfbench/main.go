// Command perfbench is the repository benchmark: three long, single-worker,
// closed-loop workloads driven through the public APIs of the serving
// engine, the fleet, and the offline reproduction pipeline. Each run prints
// its metrics as one JSON object on the last line of standard output and
// checks the deterministic outcomes it produced. See README.md for the
// workloads, the metric map, and why the timed runs use one worker.
//
// Usage (normally through run.py, which builds this binary first):
//
//	perfbench --workload serve-steady --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics in report order with their units.
// Every workload reports all of them; a metric a workload has no notion of
// reads naValue (see README.md, "Metric applicability").
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"live_heap_mb", "MB"},
	{"allocs_per_req", "count/req"},
	{"served_frac", "frac"},
	{"full_service_frac", "frac"},
	{"mispredict_frac", "frac"},
	{"flag_f1", "frac"},
	{"sim_p99_ms", "ms-virtual"},
	{"sim_cpi", "cycles/ins"},
	{"sim_cpi_p99", "cycles/ins"},
}

// perLayer lists the traced run's per-layer metrics with their units. A
// layer a workload does not run reports 0: no work, no time.
var perLayer = []struct{ name, unit string }{
	{"serve.ticks", "count"},
	{"serve.tick_us_p50", "us"},
	{"serve.tick_us_p99", "us"},
	{"serve.compact_ms", "ms"},
	{"serve.merge_ms", "ms"},
	{"serve.maint_frac", "frac"},
	{"serve.degraded_frac", "frac"},
	{"serve.shed_frac", "frac"},
	{"signature.identify_ns_p50", "ns"},
	{"signature.identify_ns_p99", "ns"},
	{"signature.identify_calls_per_req", "count/req"},
	{"signature.prune_frac", "frac"},
	{"signature.sessions_reused_frac", "frac"},
	{"signature.bank_build_ms", "ms"},
	{"signature.ident_us_per_req", "us"},
	{"distance.dtw_fill_s", "s"},
	{"distance.dtw_ns_per_pair", "ns"},
	{"distance.dtw_cells_per_s", "1/s"},
	{"cluster.kmedoids_ms", "ms"},
	{"cluster.iterations", "count"},
	{"kernel.run_s", "s"},
	{"kernel.ns_per_event", "ns"},
	{"kernel.events_per_req", "count/req"},
	{"kernel.switches_per_req", "count/req"},
	{"kernel.preemptions_per_req", "count/req"},
	{"sampling.samples_per_req", "count/req"},
	{"sim.gins_per_s", "1/s"},
	{"prof.sim_frac", "frac"},
	{"prof.machine_frac", "frac"},
	{"prof.cache_frac", "frac"},
	{"prof.kernel_frac", "frac"},
	{"prof.sched_frac", "frac"},
	{"prof.sampling_frac", "frac"},
	{"prof.distance_frac", "frac"},
	{"prof.cluster_frac", "frac"},
	{"prof.signature_frac", "frac"},
	{"prof.serve_frac", "frac"},
	{"prof.workload_frac", "frac"},
	{"prof.trace_frac", "frac"},
	{"prof.runtime_frac", "frac"},
	{"prof.clock_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"serve.parallel_speedup", "x"},
	{"fleet.parallel_speedup", "x"},
	{"distance.parallel_speedup", "x"},
	{"host.nproc", "count"},
}

// naValue stands in for an end-to-end metric a workload does not produce:
// the contract wants every metric on every run, and never a zero.
const naValue = 1

// setupReps is how many times each run builds and warms its workload; the
// reported setup_s is the median.
const setupReps = 3

// opts are the command-line settings shared by every workload.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	gobin    string
	commit   string
}

// report is what a workload run hands back to main.
type report struct {
	attempted int64
	failures  []string
	metrics   map[string]float64
	// outcome is the run's deterministic outcome; equal seeds must give
	// equal outcomes across every run of one binary.
	outcome any
	// extra is written to the run's result file only.
	extra map[string]any
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(opts) (*report, error){
	"serve-steady":   runServeSteady,
	"fleet-crowd":    runFleetCrowd,
	"repro-pipeline": runReproPipeline,
}

func main() {
	var o opts
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: serve-steady, fleet-crowd or repro-pipeline")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for result files")
	flag.StringVar(&o.gobin, "go", "go", "go command used to fold the CPU profile")
	flag.StringVar(&o.commit, "commit", "unknown", "commit the binary was built from")
	flag.Parse()
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", o.workload, o.seconds, traceFlag)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env := environment(o)
	envJSON, _ := json.Marshal(env)
	fmt.Println("env:", string(envJSON))

	rep, err := run(o)
	if err != nil {
		// A workload that cannot run produces no result line.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := checkOutcome(o, env, rep); err != nil {
		rep.failures = append(rep.failures, err.Error())
	}
	res := result{Correct: len(rep.failures) == 0, Attempted: rep.attempted, Metrics: map[string]metric{}}
	if !res.Correct {
		res.Failed = rep.attempted
		for _, f := range rep.failures {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
		}
	}
	list := endToEnd
	if o.trace {
		list = perLayer
	}
	for _, m := range list {
		v, ok := rep.metrics[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not report %s\n", o.workload, m.name)
			os.Exit(1)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s measured %s = %v\n", o.workload, m.name, v)
			os.Exit(1)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	file := map[string]any{
		"env": env, "workload": o.workload, "seed": o.seed, "seconds": o.seconds,
		"trace": o.trace, "result": res, "failures": rep.failures, "outcome": rep.outcome,
	}
	for k, v := range rep.extra {
		file[k] = v
	}
	kind := "run"
	if o.trace {
		kind = "trace"
	}
	if err := writeJSON(filepath.Join(o.out, fmt.Sprintf("%s-seed%d-%s.json", o.workload, o.seed, kind)), file); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// environment stamps every result with the host and build it came from.
func environment(o opts) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"commit":     o.commit,
		"binary":     binaryHash(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// binaryHash identifies this build, so stored outcomes are only compared
// against runs of the same program.
func binaryHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkOutcome compares the run's deterministic outcome with the one an
// earlier run of the same binary and seed stored, storing it if first.
func checkOutcome(o opts, env map[string]any, rep *report) error {
	got, err := json.MarshalIndent(rep.outcome, "", " ")
	if err != nil {
		return fmt.Errorf("outcome: %v", err)
	}
	dir := filepath.Join(o.out, "outcomes", fmt.Sprint(env["binary"]))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return os.WriteFile(path, got, 0o644)
	}
	if err != nil {
		return err
	}
	if string(want) != string(got) {
		return fmt.Errorf("deterministic outcome differs from an earlier run of seed %d (%s)", o.seed, path)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// The shared host these runs were built on moves between slow and fast
// phases that last minutes and shift every rate by up to 1.5–2×, so a run
// can land wholly in either. Host-time metrics are therefore reported at a
// nominal host speed: divided by the median speed of a frozen reference
// kernel sampled before every set-up, window and pass of the run (see
// README.md, "Host speed").

// refIters is one reference sample: a DTW-style dynamic program over fixed
// inputs. It lives in the benchmark, so no change to the program moves it.
const refIters = 300

// refNominal is the reference kernel's rate in iterations per second on the
// build host (Intel Xeon, 2 vCPUs); scaled metrics read as measured there.
const refNominal = 8000.0

var refSink float64

// hostSpeed times the reference kernel and returns its rate over
// refNominal: below 1 when the host runs slow. It allocates nothing.
func hostSpeed() float64 {
	const n = 128
	var a, b [n]float64
	var rows [2][n + 1]float64
	for i := 0; i < n; i++ {
		a[i] = float64(i%17) * 0.3
		b[i] = float64(i%13) * 0.7
	}
	prev, cur := rows[0][:], rows[1][:]
	t0 := time.Now()
	for it := 0; it < refIters; it++ {
		for j := range prev {
			prev[j] = math.Inf(1)
		}
		prev[0] = 0
		for i := 1; i <= n; i++ {
			cur[0] = math.Inf(1)
			for j := 1; j <= n; j++ {
				m := min(prev[j-1], prev[j], cur[j-1])
				cur[j] = math.Abs(a[i-1]-b[j-1]) + m
			}
			prev, cur = cur, prev
		}
		refSink += prev[n]
	}
	return refIters / time.Since(t0).Seconds() / refNominal
}

// median returns the median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return frac(sum(xs), float64(len(xs))) }

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// f1 is the F1 score from hits, flagged and actual-positive counts.
func f1(hits, flagged, actual float64) float64 { return frac(2*hits, flagged+actual) }

// heapMB collects garbage and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
