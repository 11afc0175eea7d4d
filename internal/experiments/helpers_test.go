package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestTableRenderer(t *testing.T) {
	got := table([]string{"a", "long-header"}, [][]string{
		{"x", "1"},
		{"yyyy", "22"},
	})
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), got)
	}
	// Columns align: every line has the header's separator position.
	if !strings.HasPrefix(lines[0], "a    ") {
		t.Fatalf("header not padded: %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("no separator row: %q", lines[1])
	}
	// Rows with more cells than headers must not panic (extra ignored).
	_ = table([]string{"a"}, [][]string{{"1", "2", "3"}})
}

func TestGapCDF(t *testing.T) {
	gaps := []float64{10, 10, 80}
	// P(D=10): gaps of 10 fully within, gap 80 contributes 10/80 of its
	// mass: (10+10+10)/100 = 0.3.
	if got := gapCDF(gaps, 10); got != 0.3 {
		t.Fatalf("gapCDF(10) = %v, want 0.3", got)
	}
	if got := gapCDF(gaps, 1000); got != 1 {
		t.Fatalf("gapCDF(huge) = %v, want 1", got)
	}
	if got := gapCDF(nil, 5); got != 0 {
		t.Fatalf("empty gapCDF = %v", got)
	}
	if got := gapCDF([]float64{0, -3}, 5); got != 0 {
		t.Fatalf("degenerate gaps = %v", got)
	}
}

func TestPctHelpers(t *testing.T) {
	if pct(0.123) != "12.30%" {
		t.Fatalf("pct = %q", pct(0.123))
	}
	if pctDelta(0, 1) != "n/a" {
		t.Fatal("zero-original delta should be n/a")
	}
	if pctDelta(0.2, 0.1) != "50%" {
		t.Fatalf("pctDelta = %q", pctDelta(0.2, 0.1))
	}
}

func TestConfigScaling(t *testing.T) {
	c := Config{Seed: 1, Scale: 0.5}
	if got := c.scaled(100, 10); got != 50 {
		t.Fatalf("scaled = %d", got)
	}
	if got := c.scaled(10, 30); got != 30 {
		t.Fatalf("min not applied: %d", got)
	}
	// Per-app request counts stay ordered by request length.
	if c.modelingRequests("webserver") <= c.modelingRequests("tpch") {
		t.Fatal("short-request apps should get more requests")
	}
	if c.modelingRequests("unknown") <= 0 {
		t.Fatal("unknown app should get a default")
	}
	if c.schedRequests("tpch") < 100 {
		t.Fatal("scheduling experiments need a steady-state floor")
	}
}

func TestSampleCoVHelper(t *testing.T) {
	res, err := core.Run(core.Options{
		App: workload.NewWebServer(), Requests: 10,
		Sampling: core.DefaultSampling(workload.NewWebServer()), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cov := sampleCoV(res.Store, metrics.CPI)
	if cov <= 0 {
		t.Fatalf("sampleCoV = %v, want positive", cov)
	}
}

func TestAblationFlagsChangeBehavior(t *testing.T) {
	app := workload.NewTPCH()
	run := func(noContention bool) float64 {
		res, err := core.Run(core.Options{
			App: app, Requests: 15, Sampling: core.DefaultSampling(app),
			NoContention: noContention, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Percentile(res.Store.MetricValues(metrics.CPI), 90)
	}
	withC := run(false)
	without := run(true)
	// Disabling contention collapses 4-core TPCH CPI toward solo levels.
	if without >= withC*0.8 {
		t.Fatalf("NoContention had little effect: %.2f vs %.2f", without, withC)
	}
}

func TestRequestPeakCPI(t *testing.T) {
	res, err := core.Run(core.Options{
		App: workload.NewTPCC(), Requests: 5,
		Sampling: core.DefaultSampling(workload.NewTPCC()), Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Store.Traces {
		peak := requestPeakCPI(tr)
		mean := tr.MetricValue(metrics.CPI)
		if peak < mean*0.9 {
			t.Fatalf("90-percentile CPI %v below mean %v", peak, mean)
		}
	}
}

func TestSummarizeHelper(t *testing.T) {
	if summarize(nil) != "n/a" {
		t.Fatal("empty summarize should be n/a")
	}
	if !strings.Contains(summarize([]float64{1, 2, 3}), "mean=2.000") {
		t.Fatalf("summarize = %q", summarize([]float64{1, 2, 3}))
	}
}

func TestAblationsExperiment(t *testing.T) {
	r, err := Ablations(Config{Seed: 1, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]AblationRow{}
	for _, row := range r.Rows {
		byName[row.Name] = row
		if row.On <= 0 || row.Off <= 0 {
			t.Fatalf("degenerate probe %q: %+v", row.Name, row)
		}
	}
	// Contention must inflate p90 CPI markedly; compensation must lower
	// measured CPI; pollution must cost something.
	if byName["contention model"].Ratio() < 1.2 {
		t.Errorf("contention ratio = %.2f, want > 1.2", byName["contention model"].Ratio())
	}
	if byName["observer compensation"].Ratio() >= 1.0 {
		t.Errorf("compensation should lower CPI: %.3f", byName["observer compensation"].Ratio())
	}
	if byName["switch pollution"].Ratio() < 1.0 {
		t.Errorf("pollution should cost cycles: %.3f", byName["switch pollution"].Ratio())
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
}
