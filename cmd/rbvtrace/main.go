// Command rbvtrace runs one application with the paper's online tracking
// and dumps per-request metric timelines, for inspection of intra-request
// behavior variations (the raw material of the paper's Figure 2).
//
// Usage:
//
//	rbvtrace [-app NAME] [-requests N] [-topology SPEC] [-seed N] [-limit N] [-buckets N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flag and lookup errors exit 2, run
// failures exit 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rbvtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "tpcc", "application: webserver, tpcc, tpch, rubis, webwork")
	requests := fs.Int("requests", 20, "requests to run")
	topoSpec := fs.String("topology", "", "machine topology spec, e.g. pkg=4:0.85,4:1.15 (see machine.ParseTopology)")
	seed := fs.Int64("seed", 1, "random seed")
	limit := fs.Int("limit", 3, "number of request timelines to print")
	buckets := fs.Int("buckets", 20, "resampling buckets per request")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *buckets <= 0 {
		fmt.Fprintf(stderr, "rbvtrace: -buckets must be positive, got %d\n", *buckets)
		return 2
	}
	if *limit < 0 {
		fmt.Fprintf(stderr, "rbvtrace: -limit must be non-negative, got %d\n", *limit)
		return 2
	}

	app, err := workload.ByName(*appName)
	if err != nil {
		fmt.Fprintln(stderr, "rbvtrace:", err)
		return 2
	}
	var extra []core.Option
	if *topoSpec != "" {
		topo, err := machine.ParseTopology(*topoSpec)
		if err != nil {
			fmt.Fprintln(stderr, "rbvtrace:", err)
			return 2
		}
		extra = append(extra, core.WithTopology(topo))
	}
	res, err := core.Run(core.Options{
		App:      app,
		Requests: *requests,
		Sampling: core.DefaultSampling(app),
		Seed:     *seed,
	}, extra...)
	if err != nil {
		fmt.Fprintln(stderr, "rbvtrace:", err)
		return 1
	}

	fmt.Fprintf(stdout, "%s: %d requests traced, %d samples (%.2f us sampling overhead)\n\n",
		app.Name(), res.Store.Len(), res.Samples.Total(), res.Samples.OverheadNs()/1000)
	for i, tr := range res.Store.Traces {
		if i >= *limit {
			break
		}
		fmt.Fprintf(stdout, "%s\n", tr)
		bucket := float64(tr.Instructions()) / float64(*buckets)
		if bucket <= 0 {
			continue
		}
		cpi := tr.Resampled(metrics.CPI, bucket)
		refs := tr.Resampled(metrics.L2RefsPerIns, bucket)
		miss := tr.Resampled(metrics.L2MissRatio, bucket)
		fmt.Fprintf(stdout, "  %-10s", "progress")
		for b := range cpi {
			fmt.Fprintf(stdout, " %6.0f%%", float64(b+1)/float64(len(cpi))*100)
		}
		fmt.Fprintln(stdout)
		row := func(name string, vals []float64) {
			fmt.Fprintf(stdout, "  %-10s", name)
			for _, v := range vals {
				fmt.Fprintf(stdout, " %7.3f", v)
			}
			fmt.Fprintln(stdout)
		}
		row("CPI", cpi)
		row("L2ref/ins", refs)
		row("missratio", miss)
		if n := len(tr.Syscalls); n > 0 {
			max := n
			if max > 12 {
				max = 12
			}
			fmt.Fprintf(stdout, "  syscalls (%d):", n)
			for _, s := range tr.Syscalls[:max] {
				fmt.Fprintf(stdout, " %s", s.Call)
			}
			if n > max {
				fmt.Fprint(stdout, " ...")
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
