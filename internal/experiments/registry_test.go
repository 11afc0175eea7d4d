package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

// The registry must list every experiment of the paper's evaluation, in
// presentation order. This golden list is the completeness check: adding an
// experiment function without registering it (or reordering the registry)
// fails here.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "table1", "fig3", "fig4", "fig5", "table2",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "ablations", "faultanomaly", "serve", "fleet",
		"faultlocalize", "schedlab",
	}
	got := Names()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("registry = %v\nwant %v", got, want)
	}
	for _, name := range want {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if e.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, e.Name())
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
}

// A registry entry refuses a scale it cannot honour instead of rewriting
// it: non-positive scales used to run at full scale, NaN and +Inf at the
// minimum request counts.
func TestRegistryRejectsBadScale(t *testing.T) {
	e, _ := Lookup("fig1")
	for _, scale := range []float64{math.NaN(), math.Inf(1), -1, 0} {
		if _, err := e.Run(Config{Seed: 1, Scale: scale}); err == nil || !strings.Contains(err.Error(), "experiments: Config.Scale") {
			t.Errorf("Scale %v: err = %v, want one naming experiments: Config.Scale", scale, err)
		}
	}
}

// Running a registry entry must scope its spans under the experiment's name
// and propagate errors unwrapped in a (nil, err) pair.
func TestRegistryEntryScopesSpans(t *testing.T) {
	col := obs.New("test")
	e, _ := Lookup("fig6") // the cheapest experiment: two requests, two matrices
	res, err := e.Run(Config{Seed: 1, Scale: 0.1, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	if res.String() == "" {
		t.Error("empty rendering through the interface")
	}
	rep := col.Report()
	if len(rep.Spans.Children) != 1 || rep.Spans.Children[0].Name != "fig6" {
		t.Fatalf("top-level spans = %+v, want one fig6 scope", rep.Spans.Children)
	}
	// core.Run's "run" scope nests under the experiment scope.
	fig := rep.Spans.Children[0]
	if len(fig.Children) == 0 || fig.Children[0].Name != "run" {
		t.Errorf("fig6 children = %+v, want a run scope", fig.Children)
	}
}

// TestTracingDoesNotPerturbResults is the tentpole's golden guarantee: an
// attached collector — full or sampling — must leave every experiment's
// rendered output bit-identical to the uninstrumented run. fig1 exercises
// the kernel spans, fig7 the distance engine, fig10 the signature sessions.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	cases := []string{"fig1", "fig7", "fig10"}
	for _, name := range cases {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, ok := Lookup(name)
			if !ok {
				t.Fatalf("missing experiment %s", name)
			}
			run := func(col *obs.Collector) string {
				r, err := e.Run(Config{Seed: 1, Scale: 0.1, Obs: col})
				if err != nil {
					t.Fatal(err)
				}
				return r.String()
			}
			base := run(nil)
			full := obs.New("full")
			if got := run(full); got != base {
				t.Errorf("full collector perturbed %s output", name)
			}
			sampled := obs.New("sampled")
			sampled.SetSampleEvery(16)
			if got := run(sampled); got != base {
				t.Errorf("sampling collector perturbed %s output", name)
			}
			// The instrumented runs must actually have recorded something —
			// otherwise this test proves nothing.
			rep := full.Report()
			if len(rep.Spans.Children) == 0 {
				t.Error("full collector recorded no spans")
			}
			if len(rep.Counters) == 0 {
				t.Error("full collector recorded no counters")
			}
		})
	}
}
