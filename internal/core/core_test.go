package core

import (
	"errors"
	"testing"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestRunValidation(t *testing.T) {
	web := workload.NewWebServer()
	cases := []struct {
		name string
		opts Options
		want error
	}{
		{"missing app", Options{Requests: 1}, ErrNoApp},
		{"zero requests", Options{App: web}, ErrNoRequests},
		{"negative requests", Options{App: web, Requests: -3}, ErrNoRequests},
		{"negative concurrency", Options{App: web, Requests: 1, Concurrency: -2}, ErrBadConcurrency},
		{"policy without threshold", Options{App: web, Requests: 1,
			PolicyName: "contention-easing"}, ErrBadThreshold},
		{"policy without threshold wraps sched", Options{App: web, Requests: 1,
			PolicyName: "topology-aware"}, sched.ErrNoThreshold},
		{"policy without bank", Options{App: web, Requests: 1,
			PolicyName: "deadline"}, sched.ErrNoBank},
		{"metering without threshold", Options{App: web, Requests: 1,
			MeterCoExecution: true}, ErrBadThreshold},
		{"unknown policy", Options{App: web, Requests: 1,
			PolicyName: "fifo", UsageThreshold: 1}, ErrUnknownPolicy},
	}
	for _, tc := range cases {
		_, err := Run(tc.opts)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, not errors.Is %v", tc.name, err, tc.want)
		}
	}
}

func TestRunOptionsApply(t *testing.T) {
	app := workload.NewWebServer()
	col := obs.New("test")
	res, err := Run(Options{App: app, Requests: 5, Seed: 1},
		WithSampling(DefaultSampling(app)), WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples.Total() == 0 {
		t.Fatal("WithSampling not applied: no samples recorded")
	}
	rep := col.Report()
	if len(rep.Spans.Children) != 1 || rep.Spans.Children[0].Name != "run" {
		t.Fatalf("WithObserver not applied: spans = %+v", rep.Spans.Children)
	}
	run := rep.Spans.Children[0]
	var reqNode *obs.SpanReport
	for _, ch := range run.Children {
		if ch.Name == "request" {
			reqNode = ch
		}
	}
	if reqNode == nil || reqNode.Count != 5 {
		t.Fatalf("request spans = %+v, want count 5", reqNode)
	}
	if rep.Sampler == nil || rep.Sampler.OverheadNs <= 0 {
		t.Fatal("sampler overhead accounting missing")
	}
	counters := map[string]uint64{}
	for _, ct := range rep.Counters {
		counters[ct.Name] = ct.Value
	}
	if counters["sim.events_dispatched"] == 0 {
		t.Error("events-dispatched counter missing")
	}
	if counters["kernel.context_switches"] != res.ContextSwitches {
		t.Errorf("context switches: counter %d != result %d",
			counters["kernel.context_switches"], res.ContextSwitches)
	}
	if counters["sampling.kernel_samples"]+counters["sampling.interrupt_samples"] != res.Samples.Total() {
		t.Errorf("sampling counters %d+%d != Counts total %d",
			counters["sampling.kernel_samples"], counters["sampling.interrupt_samples"],
			res.Samples.Total())
	}
}

func TestRunSerialVsConcurrent(t *testing.T) {
	app := workload.NewTPCH()
	serial, err := Run(Options{App: app, Concurrency: 1, Requests: 15,
		Sampling: DefaultSampling(app), Seed: 1}, WithTopology(machine.Homogeneous(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	conc, err := Run(Options{App: app, Requests: 15,
		Sampling: DefaultSampling(app), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1's headline: concurrent execution obfuscates performance;
	// TPCH's peak CPI worsens markedly.
	s90 := stats.Percentile(serial.Store.MetricValues(metrics.CPI), 90)
	c90 := stats.Percentile(conc.Store.MetricValues(metrics.CPI), 90)
	if c90 < s90*1.3 {
		t.Fatalf("4-core 90p CPI %.2f should substantially exceed 1-core %.2f", c90, s90)
	}
}

func TestRunWithContentionEasing(t *testing.T) {
	app := workload.NewTPCH()
	base, err := Run(Options{App: app, Requests: 20, Sampling: DefaultSampling(app), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	threshold := sched.HighUsageThreshold(base.Store, 80)
	eased, err := Run(Options{App: app, Requests: 20, Sampling: DefaultSampling(app),
		PolicyName: "contention-easing", UsageThreshold: threshold,
		MeterCoExecution: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if eased.PolicyStats == nil {
		t.Fatal("policy stats missing")
	}
	if eased.Store.Len() != 20 {
		t.Fatalf("traced %d/20", eased.Store.Len())
	}
}

func TestSamplingPresets(t *testing.T) {
	app := workload.NewWebServer()
	d := DefaultSampling(app)
	if d.Period != app.SamplingPeriod() || !d.Compensate {
		t.Fatalf("DefaultSampling = %+v", d)
	}
	s := SyscallSampling(app)
	if s.TbackupInt <= s.TsyscallMin {
		t.Fatal("backup delay must exceed TsyscallMin")
	}
}

func TestBucketFor(t *testing.T) {
	if BucketFor("webserver") >= BucketFor("tpch") {
		t.Fatal("short-request apps need finer buckets")
	}
	if BucketFor("unknown") <= 0 {
		t.Fatal("unknown app should get a sane default")
	}
}

func TestModelerDerivesPenalty(t *testing.T) {
	app := workload.NewTPCC()
	res, err := Run(Options{App: app, Requests: 30, Sampling: DefaultSampling(app), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := NewModeler("tpcc", res.Store.Traces)
	if m.AsyncPenalty <= 0 {
		t.Fatalf("penalty not derived: %v", m.AsyncPenalty)
	}
	if m.L1().Name() == "" || m.DTW().Name() == "" || m.DTWPenalized().Name() == "" {
		t.Fatal("measure constructors broken")
	}
}
