// Command rbvserve runs the always-on service mode (package serve): a
// continuous deterministic request stream through the online
// identification / compaction / anomaly pipeline, with admission control
// and backpressure.
//
// Usage:
//
//	rbvserve [-seed N] [-requests N] [-spec STREAM] [-workers N] [-trace]
//	rbvserve -topology FLEET [-policy NAME] [-seed N] [-requests N] [-spec STREAM]
//
// The run processes -requests arrivals (whole ticks, then a drain), prints
// the engine's deterministic result table, and appends the identify-path
// latency profile (p50/p99/p999 wall nanoseconds per identification scan
// — the one output that is *not* deterministic, since it measures the real
// clock). The engine times identification only with an obs collector
// attached, so this command always attaches one. -spec overrides the
// arrival process using the compact stream syntax (see
// workload.ParseStream):
//
//	rate=800000;mix=webserver:4,tpcc:2,rubis:2;period=50ms:0.3;burst=100ms+40ms*2.5;drift=0.01;seed=1
//
// A -spec without its own seed=N inherits -seed, so sweeping seeds does not
// require editing the spec. -trace also prints the collector's counter
// summary (results are identical either way).
//
// -topology switches to fleet mode (serve.Fleet): the stream is sharded
// across a fleet of simulated machines given as "/"-separated topology
// specs (see machine.ParseFleet), e.g.
//
//	rbvserve -topology "pkg=2,2/pkg=4:0.85/pkg=4:1.15:8,4:1.15:8" -policy ease
//
// -policy picks the placement policy from the serve package's registry by
// canonical name or alias: "round-robin" ("rr", the default), "contention-
// easing" ("ease"), or "scale-out" ("scale", reactive node activation from
// the queued-high saturation signal). -policy without -topology is a usage
// error (exit 2): the single-node engine has no placement policy. The
// fleet runs on one goroutine and ignores -workers; its results are
// bit-identical across repeats.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flag and spec errors exit 2, engine
// failures exit 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rbvserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "master random seed (runs are reproducible per seed)")
	requests := fs.Int("requests", 1_000_000, "number of arrivals to process before draining")
	spec := fs.String("spec", "", "stream spec overriding the default arrival process (see workload.ParseStream)")
	workers := fs.Int("workers", 0, "engine mode only: goroutines driving the shard phase (0 = GOMAXPROCS; never changes results)")
	traceOut := fs.Bool("trace", false, "print the observability counter summary after the run")
	topoSpec := fs.String("topology", "", "fleet mode: \"/\"-separated node topologies (see machine.ParseFleet)")
	policy := fs.String("policy", "rr", "fleet placement policy: "+strings.Join(serve.FleetPolicyNames(), ", ")+" (aliases: rr, ease, scale)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *requests <= 0 {
		fmt.Fprintf(stderr, "rbvserve: -requests must be positive, got %d\n", *requests)
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "rbvserve: -workers must be non-negative, got %d\n", *workers)
		return 2
	}
	if *topoSpec != "" {
		return runFleet(*topoSpec, *policy, *seed, *requests, *spec, stdout, stderr)
	}
	policySet := false
	fs.Visit(func(f *flag.Flag) { policySet = policySet || f.Name == "policy" })
	if policySet {
		fmt.Fprintln(stderr, "rbvserve: -policy needs -topology: the single-node engine has no placement policy")
		return 2
	}

	cfg := serve.DefaultConfig(*seed)
	cfg.Workers = *workers
	if *spec != "" {
		sc, err := workload.ParseStream(*spec)
		if err != nil {
			fmt.Fprintf(stderr, "rbvserve: %v\n", err)
			return 2
		}
		if !strings.Contains(*spec, "seed=") {
			sc.Seed = *seed
		}
		cfg.Stream = sc
	}

	// The collector is always attached: without one the engine keeps no
	// identify-latency histogram to print.
	col := obs.New("rbvserve")
	cfg.Obs = col

	e, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "rbvserve: %v\n", err)
		return 1
	}
	defer e.Close()

	start := time.Now()
	e.Process(*requests)
	e.Drain()
	wall := time.Since(start)
	res := e.Result()

	fmt.Fprintf(stdout, "stream %q\n", cfg.Stream.String())
	fmt.Fprint(stdout, res.String())
	if wall > 0 {
		fmt.Fprintf(stdout, "  wall                   %.3fs (%.2fM req/s ingest)\n",
			wall.Seconds(), float64(res.Arrivals)/wall.Seconds()/1e6)
	}
	h := e.Histogram()
	fmt.Fprintf(stdout, "  identify latency       p50 %.0fns  p99 %.0fns  p999 %.0fns  (%d calls, max %dns)\n",
		h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Count(), h.Max())

	if *traceOut {
		fmt.Fprint(stdout, col.Report().Summary())
	}
	return 0
}

// runFleet is the -topology path: the stream sharded across a simulated
// fleet under the selected placement policy.
func runFleet(topoSpec, policy string, seed int64, requests int, spec string, stdout, stderr io.Writer) int {
	nodes, err := machine.ParseFleet(topoSpec)
	if err != nil {
		fmt.Fprintf(stderr, "rbvserve: %v\n", err)
		return 2
	}
	cfg := serve.DefaultFleetConfig(seed)
	cfg.Nodes = nodes
	pol, err := serve.ParseFleetPolicy(policy)
	if err != nil {
		fmt.Fprintf(stderr, "rbvserve: %v\n", err)
		return 2
	}
	cfg.Policy = pol
	if spec != "" {
		sc, err := workload.ParseStream(spec)
		if err != nil {
			fmt.Fprintf(stderr, "rbvserve: %v\n", err)
			return 2
		}
		if !strings.Contains(spec, "seed=") {
			sc.Seed = seed
		}
		cfg.Stream = sc
	}
	f, err := serve.NewFleet(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "rbvserve: %v\n", err)
		return 1
	}

	start := time.Now()
	f.Process(requests)
	f.Drain()
	wall := time.Since(start)
	res := f.Result()

	fmt.Fprintf(stdout, "stream %q\n", cfg.Stream.String())
	fmt.Fprintf(stdout, "fleet  %q\n", machine.FleetString(cfg.Nodes))
	fmt.Fprint(stdout, res.String())
	if wall > 0 {
		fmt.Fprintf(stdout, "  wall %.3fs (%.2fM req/s ingest)\n",
			wall.Seconds(), float64(res.Arrivals)/wall.Seconds()/1e6)
	}
	return 0
}
