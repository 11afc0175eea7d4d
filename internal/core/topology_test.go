package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// fingerprintRun reduces a run to a comparable summary: per-request
// identity, sample counts, and the raw CPI series of every trace.
func fingerprintRun(t *testing.T, res *Result) []float64 {
	t.Helper()
	out := []float64{float64(res.ContextSwitches), float64(res.Syscalls), float64(res.WallTime)}
	for _, tr := range res.Store.Traces {
		out = append(out, float64(tr.ID), float64(tr.Instructions()))
		out = append(out, tr.Resampled(metrics.CPI, BucketFor(tr.App))...)
	}
	return out
}

// TestTopologyClockSlowsRun: a half-clock topology runs the same load
// slower than the nominal-clock box of the same shape.
func TestTopologyClockSlowsRun(t *testing.T) {
	app := workload.NewWebServer()
	opts := Options{App: app, Concurrency: 1, Requests: 4, Seed: 1}
	halfClock := machine.Topology{
		Packages:    []machine.PackageSpec{{Cores: 1, FreqScale: 1}},
		CyclesPerNs: 1.5,
	}
	res, err := Run(opts, WithTopology(halfClock))
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Run(opts, WithTopology(machine.Homogeneous(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.WallTime <= solo.WallTime {
		t.Fatalf("half-clock topology should run slower: %v vs %v", res.WallTime, solo.WallTime)
	}
}

func TestRunRejectsBadTopology(t *testing.T) {
	app := workload.NewWebServer()
	_, err := Run(Options{App: app, Requests: 1, Seed: 1},
		WithTopology(machine.Topology{Packages: []machine.PackageSpec{{Cores: 2, FreqScale: -1}}}))
	if !errors.Is(err, ErrBadTopology) {
		t.Fatalf("err = %v, want ErrBadTopology", err)
	}
	if !strings.Contains(err.Error(), "FreqScale") {
		t.Fatalf("error should name the offending field: %v", err)
	}
	// An uneven layout — packages [2 1] — is valid, so it must run.
	if _, err := Run(Options{App: app, Requests: 1, Seed: 1},
		WithTopology(machine.Homogeneous(3, 2))); err != nil {
		t.Fatalf("Homogeneous(3, 2) should run on an uneven topology, got %v", err)
	}
}

// TestHeterogeneousRunDeterminism: a heterogeneous fleet-node layout must
// reproduce bit-identically run to run.
func TestHeterogeneousRunDeterminism(t *testing.T) {
	topo, err := machine.ParseTopology("pkg=2:0.8,4:1.2:8;clock=2.5")
	if err != nil {
		t.Fatal(err)
	}
	app := workload.NewTPCC()
	run := func() []float64 {
		res, err := Run(Options{App: app, Requests: 10, Sampling: DefaultSampling(app), Seed: 7},
			WithTopology(topo))
		if err != nil {
			t.Fatal(err)
		}
		return fingerprintRun(t, res)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("heterogeneous run not deterministic at %d", i)
		}
	}
}
