package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/signature"
	"repro/internal/stats"
	"repro/internal/workload"
)

// schedLabBankK is the compacted signature bank size the lab's signature-
// driven policies (cluster co-scheduling, deadline ordering) predict from.
const schedLabBankK = 8

// SchedLabKernelRow is one kernel policy × load cell of the scheduling lab.
type SchedLabKernelRow struct {
	Policy string
	Load   string

	CPIMean float64
	CPIP99  float64
	// LatencyP99Ns is the 99th-percentile request latency (submit to
	// completion) in virtual nanoseconds.
	LatencyP99Ns    float64
	ContextSwitches uint64
	WallNs          int64
}

// SchedLabFleetRow is one fleet placement policy's outcome on the shared
// stream.
type SchedLabFleetRow struct {
	Policy string

	Completed uint64
	Shed      uint64
	Degraded  uint64
	CPI       float64
	P99Ns     float64

	ScaleUps    uint64
	ScaleDowns  uint64
	ActiveNodes int
}

// SchedLabResult reports experiment 21: every registered scheduling policy
// — kernel and fleet — raced under identical seeds. The kernel race runs
// each policy over the same TPC-H closed loop at two load levels (steady
// and flash-crowd concurrency) from one shared calibration (usage
// threshold + compacted signature bank), so row differences are purely the
// policies' decisions. The fleet race replays one arrival stream under
// every registered placement policy.
type SchedLabResult struct {
	App         string
	Requests    int
	Threshold   float64
	BankEntries int
	Kernel      []SchedLabKernelRow
	FleetSpec   string
	FleetReqs   int
	Fleet       []SchedLabFleetRow
}

// schedLabLoads are the closed-loop concurrency levels of the kernel race:
// the default two sessions per core, and a flash-crowd sixfold that.
var schedLabLoads = []struct {
	Name     string
	Sessions int
}{
	{"steady", 0},
	{"crowd", 24},
}

// SchedLab runs experiment 21. Policies come from the sched and serve
// registries, never a hand-kept list, so a newly registered policy joins
// the race automatically. All kernel cells fan out concurrently when the
// config allows; results aggregate in the fixed (policy, load) order and
// are bit-identical across repeats and GOMAXPROCS settings.
func SchedLab(cfg Config) (*SchedLabResult, error) {
	app := workload.NewTPCH()
	n := cfg.schedRequests(app.Name())
	par := cfg.parallelizable()

	// Shared calibration: a round-robin run yields the 80-percentile usage
	// threshold and the compacted signature bank every policy consumes.
	calib, err := core.Run(core.Options{
		App: app, Requests: n, Seed: cfg.Seed,
	}, core.WithSampling(schedSampling(app)), core.WithObserver(cfg.Obs))
	if err != nil {
		return nil, fmt.Errorf("schedlab calibration: %w", err)
	}
	threshold := sched.HighUsageThreshold(calib.Store, 80)
	bank := signature.BuildCompact(calib.Store.Traces, metrics.L2RefsPerIns,
		core.BucketFor(app.Name()), 0, schedLabBankK, cfg.Seed)

	out := &SchedLabResult{
		App:         app.Name(),
		Requests:    n,
		Threshold:   threshold,
		BankEntries: len(bank.Entries),
	}

	policies := sched.PolicyNames()
	cells := len(policies) * len(schedLabLoads)
	rows := make([]SchedLabKernelRow, cells)
	err = forEachIndex(cells, par, func(j int) error {
		pi, li := j/len(schedLabLoads), j%len(schedLabLoads)
		name, load := policies[pi], schedLabLoads[li]
		res, err := core.Run(core.Options{
			App: app, Requests: n, Sampling: schedSampling(app),
			Seed: cfg.Seed, Concurrency: load.Sessions,
			PolicyName: name, UsageThreshold: threshold, SignatureBank: bank,
		}, core.WithObserver(cfg.Obs))
		if err != nil {
			return fmt.Errorf("schedlab %s/%s: %w", name, load.Name, err)
		}
		cpis := res.Store.MetricValues(metrics.CPI)
		lats := make([]float64, 0, res.Store.Len())
		for _, tr := range res.Store.Traces {
			lats = append(lats, float64(tr.End-tr.Start))
		}
		rows[j] = SchedLabKernelRow{
			Policy:          name,
			Load:            load.Name,
			CPIMean:         stats.Mean(cpis),
			CPIP99:          stats.Percentile(cpis, 99),
			LatencyP99Ns:    stats.Percentile(lats, 99),
			ContextSwitches: res.ContextSwitches,
			WallNs:          int64(res.WallTime),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Kernel = rows

	// Fleet race: one stream, every registered placement policy. Burst and
	// maintenance cadence track the span as in the fleet experiment.
	freq := cfg.scaled(150_000, 6_000)
	fc := serve.DefaultFleetConfig(cfg.Seed)
	spanNs := float64(freq) / fc.Stream.RatePerSec * 1e9
	fc.Stream.Bursts = []workload.StreamBurst{
		{StartNs: 0.30 * spanNs, DurationNs: 0.15 * spanNs, Factor: 2.5},
	}
	if ticks := int(spanNs / float64(fc.TickNs)); ticks/10 > 0 {
		fc.CompactTicks = ticks / 10
	} else {
		fc.CompactTicks = 1
	}
	fc.MergeEvery = 2
	fc.Obs = cfg.Obs
	out.FleetSpec = fc.Stream.String()
	out.FleetReqs = freq
	for _, info := range serve.FleetPolicies() {
		fc.Policy = info.Policy
		f, err := serve.NewFleet(fc)
		if err != nil {
			return nil, fmt.Errorf("schedlab fleet %s: %w", info.Policy, err)
		}
		f.Process(freq)
		f.Drain()
		r := f.Result()
		out.Fleet = append(out.Fleet, SchedLabFleetRow{
			Policy:      string(info.Policy),
			Completed:   r.Completed,
			Shed:        r.Shed,
			Degraded:    r.Degraded,
			CPI:         r.CPI,
			P99Ns:       r.P99Ns,
			ScaleUps:    r.ScaleUps,
			ScaleDowns:  r.ScaleDowns,
			ActiveNodes: r.ActiveNodes,
		})
	}
	return out, nil
}

// String renders the two race tables.
func (r *SchedLabResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheduling-policy lab: %s, %d requests/run, threshold %.4g, bank %d entries\n\n",
		r.App, r.Requests, r.Threshold, r.BankEntries)
	kr := make([][]string, len(r.Kernel))
	for i, row := range r.Kernel {
		kr[i] = []string{
			row.Policy, row.Load,
			fmt.Sprintf("%.3f", row.CPIMean),
			fmt.Sprintf("%.3f", row.CPIP99),
			fmt.Sprintf("%.3f", row.LatencyP99Ns/1e6),
			fmt.Sprintf("%d", row.ContextSwitches),
			fmt.Sprintf("%.1f", float64(row.WallNs)/1e6),
		}
	}
	b.WriteString(table([]string{"policy", "load", "CPI mean", "CPI p99", "lat p99 ms", "switches", "wall ms"}, kr))
	fmt.Fprintf(&b, "\nfleet race: %d requests over %q\n", r.FleetReqs, r.FleetSpec)
	fr := make([][]string, len(r.Fleet))
	for i, row := range r.Fleet {
		fr[i] = []string{
			row.Policy,
			fmt.Sprintf("%d", row.Completed),
			fmt.Sprintf("%d", row.Shed),
			fmt.Sprintf("%d", row.Degraded),
			fmt.Sprintf("%.4f", row.CPI),
			fmt.Sprintf("%.3f", row.P99Ns/1e6),
			fmt.Sprintf("%d/%d/%d", row.ActiveNodes, row.ScaleUps, row.ScaleDowns),
		}
	}
	b.WriteString(table([]string{"policy", "completed", "shed", "degraded", "CPI", "p99 ms", "active/ups/downs"}, fr))
	return b.String()
}
