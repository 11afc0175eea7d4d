// Command rbvrepro regenerates the tables and figures of "Request Behavior
// Variations" (Shen, ASPLOS 2010) on the simulated substrate.
//
// Usage:
//
//	rbvrepro [-seed N] [-scale F] [-run LIST] [-topology SPEC] [-json FILE] [-trace] [-obs-sample N]
//	rbvrepro -verify [-grid smoke|full] [-run LIST] [-golden-dir DIR] [-verify-workers N]
//	rbvrepro -golden [-grid smoke|full] [-golden-dir DIR] [-verify-workers N]
//
// where LIST is a comma-separated subset of the experiment registry
// (default: everything, in paper order; see experiments.Registry). -json
// writes an observability run report ("-" = stdout) and -trace prints the
// human-readable span/counter summary; either flag attaches a collector to
// every run. Collectors never change results (see package obs).
//
// -topology overrides the simulated machine of every multi-core run using
// the compact topology syntax (see machine.ParseTopology), e.g.
// "pkg=2:0.8,4:1.2:8;clock=2.5" or "cores=16;per=4". Runs that pin their
// own core count (the solo baselines) keep it. Verification modes reject
// the flag: golden fingerprints are defined on the paper's machine.
//
// -verify runs the deterministic verification sweep (package verify): the
// selected experiment grid is re-executed in parallel and checked against
// the committed golden-fingerprint corpus, and any divergence is reported
// with the experiment name and first divergent field. -grid picks the tier:
// "smoke" (the default seed x scale x GOMAXPROCS spread, corpus
// testdata/golden) or "full" (every experiment at seed 1, scale 1 — the
// README's quoted configuration, corpus testdata/golden-full). -golden
// re-runs the selected grid and regenerates its corpus — the step after an
// intentional output change (see README "Verification").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flag errors and unknown experiment
// names exit 2, run and verification failures exit 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rbvrepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "master random seed (runs are reproducible per seed)")
	scale := fs.Float64("scale", 1.0, "request-count scale factor (1.0 = full evaluation)")
	runList := fs.String("run", "", "comma-separated experiments to run (default all, in paper order)")
	topoSpec := fs.String("topology", "", "machine topology for multi-core runs (see machine.ParseTopology)")
	jsonOut := fs.String("json", "", "write the observability run report as JSON to this file (\"-\" = stdout)")
	traceOut := fs.Bool("trace", false, "print the observability span/counter summary after the runs")
	obsSample := fs.Uint64("obs-sample", 1, "record 1 in N observations of the highest-frequency span series")
	verifyMode := fs.Bool("verify", false, "check the experiment grid against the golden-fingerprint corpus")
	goldenMode := fs.Bool("golden", false, "regenerate the golden-fingerprint corpus from the current code")
	goldenDir := fs.String("golden-dir", "", "golden corpus directory (default per -grid tier)")
	gridTier := fs.String("grid", "smoke", "verification grid tier: smoke (seed x scale x GOMAXPROCS spread) or full (every experiment at seed 1, scale 1)")
	verifyWorkers := fs.Int("verify-workers", 0, "concurrent verification cells (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var col *obs.Collector
	if *jsonOut != "" || *traceOut {
		col = obs.New("rbvrepro")
		col.SetSampleEvery(*obsSample)
	}

	// With the JSON report on stdout, the human-readable tables move to
	// stderr so the report stays a clean machine-parseable stream.
	text := stdout
	if *jsonOut == "-" {
		text = stderr
	}

	if *verifyMode || *goldenMode {
		if *verifyMode && *goldenMode {
			fmt.Fprintln(stderr, "rbvrepro: -verify and -golden are mutually exclusive")
			return 2
		}
		if *topoSpec != "" {
			fmt.Fprintln(stderr, "rbvrepro: -topology cannot be combined with -verify/-golden (fingerprints are defined on the default machine)")
			return 2
		}
		// Each grid tier owns its corpus directory, so the smoke and full
		// corpora regenerate independently.
		var grid []verify.Cell
		switch *gridTier {
		case "smoke":
			grid = verify.DefaultGrid()
			if *goldenDir == "" {
				*goldenDir = "internal/verify/testdata/golden"
			}
		case "full":
			grid = verify.FullGrid()
			if *goldenDir == "" {
				*goldenDir = "internal/verify/testdata/golden-full"
			}
		default:
			fmt.Fprintf(stderr, "rbvrepro: unknown -grid tier %q (valid: smoke, full)\n", *gridTier)
			return 2
		}
		partial := false
		if *runList != "" {
			// -run narrows the verification grid the same way it narrows a
			// normal run. A narrowed -golden is forbidden: regeneration
			// owns the corpus directory and would delete every other
			// experiment's golden files.
			if *goldenMode {
				fmt.Fprintln(stderr, "rbvrepro: -golden regenerates the full corpus; it cannot be narrowed with -run")
				return 2
			}
			selected, err := selectExperiments(*runList)
			if err != nil {
				fmt.Fprintf(stderr, "rbvrepro: %v\n", err)
				return 2
			}
			want := map[string]bool{}
			for _, e := range selected {
				want[e.Name()] = true
			}
			var narrowed []verify.Cell
			for _, c := range grid {
				if want[c.Experiment] {
					narrowed = append(narrowed, c)
				}
			}
			grid, partial = narrowed, true
		}
		rep, err := verify.Sweep(grid, verify.Options{
			Dir:     *goldenDir,
			Workers: *verifyWorkers,
			Obs:     col,
			Update:  *goldenMode,
		})
		if err != nil {
			fmt.Fprintf(stderr, "rbvrepro: verify: %v\n", err)
			return 1
		}
		if partial {
			// Entries outside the narrowed grid are expected, not stale.
			rep.Stale = nil
		}
		fmt.Fprint(text, rep)
		if code := writeObs(col, *jsonOut, *traceOut, text, stdout, stderr); code != 0 {
			return code
		}
		if !rep.OK() {
			return 1
		}
		return 0
	}

	selected, err := selectExperiments(*runList)
	if err != nil {
		fmt.Fprintf(stderr, "rbvrepro: %v\n", err)
		return 2
	}
	cfg := experiments.Config{Seed: *seed, Scale: *scale, Obs: col}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "rbvrepro: %v\n", err)
		return 2
	}
	if *topoSpec != "" {
		topo, err := machine.ParseTopology(*topoSpec)
		if err != nil {
			fmt.Fprintf(stderr, "rbvrepro: %v\n", err)
			return 2
		}
		cfg.Topology = &topo
	}
	for _, e := range selected {
		start := time.Now()
		result, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "rbvrepro: %s failed: %v\n", e.Name(), err)
			return 1
		}
		fmt.Fprintf(text, "==== %s (%.1fs) ====\n\n%s\n", e.Name(), time.Since(start).Seconds(), result)
	}
	return writeObs(col, *jsonOut, *traceOut, text, stdout, stderr)
}

// writeObs emits the collector's report per the -trace/-json flags (no-op
// for a nil collector); returns a non-zero exit code on write failure.
func writeObs(col *obs.Collector, jsonOut string, traceOut bool, text, stdout, stderr io.Writer) int {
	if col == nil {
		return 0
	}
	rep := col.Report()
	if traceOut {
		fmt.Fprint(text, rep.Summary())
	}
	if jsonOut != "" {
		w := stdout
		if jsonOut != "-" {
			f, err := os.Create(jsonOut)
			if err != nil {
				fmt.Fprintf(stderr, "rbvrepro: %v\n", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		if err := rep.WriteJSON(w); err != nil {
			fmt.Fprintf(stderr, "rbvrepro: write report: %v\n", err)
			return 1
		}
	}
	return 0
}

// selectExperiments resolves a comma-separated name list against the
// registry, preserving paper order; an empty list selects everything.
// Unknown names are an error carrying the full set of valid names.
func selectExperiments(list string) ([]experiments.Experiment, error) {
	reg := experiments.Registry()
	if list == "" {
		return reg, nil
	}
	want := map[string]bool{}
	var order []string
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name != "" && !want[name] {
			want[name] = true
			order = append(order, name)
		}
	}
	var selected []experiments.Experiment
	for _, e := range reg {
		if want[e.Name()] {
			selected = append(selected, e)
			delete(want, e.Name())
		}
	}
	if len(want) > 0 {
		var unknown []string
		for _, name := range order {
			if want[name] {
				unknown = append(unknown, name)
			}
		}
		return nil, fmt.Errorf("unknown experiments: %s (valid: %s)",
			strings.Join(unknown, ","), strings.Join(experiments.Names(), ","))
	}
	return selected, nil
}
