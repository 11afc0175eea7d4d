package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// AblationRow is one design-choice probe: the quantity with the mechanism
// on and off, and what the ratio means.
type AblationRow struct {
	Name    string
	On, Off float64
	Unit    string
	Meaning string
}

// Ratio is On/Off (the mechanism's multiplicative effect).
func (r AblationRow) Ratio() float64 {
	if r.Off == 0 {
		return 0
	}
	return r.On / r.Off
}

// AblationsResult quantifies the design choices DESIGN.md calls out, as
// runnable experiments (the root benchmarks report the same quantities as
// custom metrics).
type AblationsResult struct {
	Rows []AblationRow
}

// Ablations runs the design-choice probes.
func Ablations(cfg Config) (*AblationsResult, error) {
	out := &AblationsResult{}

	// 1. Contention model: 4-core TPCH p90 CPI with and without the
	// shared-cache/bandwidth model.
	tpch := workload.NewTPCH()
	n := cfg.scaled(40, 15)
	p90 := func(noContention bool) (float64, error) {
		res, err := core.Run(core.Options{
			App: tpch, Requests: n, Sampling: core.DefaultSampling(tpch),
			NoContention: noContention, Seed: cfg.Seed,
		}, core.WithObserver(cfg.Obs))
		if err != nil {
			return 0, err
		}
		return stats.Percentile(res.Store.MetricValues(metrics.CPI), 90), nil
	}
	on, err := p90(false)
	if err != nil {
		return nil, fmt.Errorf("ablations contention: %w", err)
	}
	off, err := p90(true)
	if err != nil {
		return nil, fmt.Errorf("ablations contention: %w", err)
	}
	out.Rows = append(out.Rows, AblationRow{
		Name: "contention model", On: on, Off: off, Unit: "p90 CPI",
		Meaning: "shared-cache+bandwidth contention drives Figure 1's obfuscation",
	})

	// 2. Observer compensation: measured web CPI with and without the
	// "do no harm" subtraction under 10 µs sampling.
	web := workload.NewWebServer()
	wn := cfg.scaled(120, 30)
	meanCPI := func(compensate bool) (float64, error) {
		scfg := core.DefaultSampling(web)
		scfg.Compensate = compensate
		res, err := core.Run(core.Options{App: web, Requests: wn, Sampling: scfg, Seed: cfg.Seed},
			core.WithObserver(cfg.Obs))
		if err != nil {
			return 0, err
		}
		return stats.Mean(res.Store.MetricValues(metrics.CPI)), nil
	}
	raw, err := meanCPI(false)
	if err != nil {
		return nil, fmt.Errorf("ablations compensation: %w", err)
	}
	comp, err := meanCPI(true)
	if err != nil {
		return nil, fmt.Errorf("ablations compensation: %w", err)
	}
	out.Rows = append(out.Rows, AblationRow{
		Name: "observer compensation", On: comp, Off: raw, Unit: "mean CPI",
		Meaning: "uncompensated fine-grained sampling inflates measured CPI",
	})

	// 3. Switch pollution: TPCH mean CPI with and without the context-
	// switch cache-refill charge.
	cpiPoll := func(noPollution bool) (float64, error) {
		res, err := core.Run(core.Options{
			App: tpch, Requests: n, Sampling: core.DefaultSampling(tpch),
			NoSwitchPollution: noPollution, Seed: cfg.Seed,
		}, core.WithObserver(cfg.Obs))
		if err != nil {
			return 0, err
		}
		return stats.Mean(res.Store.MetricValues(metrics.CPI)), nil
	}
	pollOn, err := cpiPoll(false)
	if err != nil {
		return nil, fmt.Errorf("ablations pollution: %w", err)
	}
	pollOff, err := cpiPoll(true)
	if err != nil {
		return nil, fmt.Errorf("ablations pollution: %w", err)
	}
	out.Rows = append(out.Rows, AblationRow{
		Name: "switch pollution", On: pollOn, Off: pollOff, Unit: "mean CPI",
		Meaning: "context-switch cache refills cost real cycles (Section 5.2's concern)",
	})

	// 4. Topology-aware scheduling extension vs the paper's policy, on
	// worst-case CPI.
	calib, err := core.Run(core.Options{
		App: tpch, Requests: n, Sampling: core.DefaultSampling(tpch), Seed: cfg.Seed,
	}, core.WithObserver(cfg.Obs))
	if err != nil {
		return nil, fmt.Errorf("ablations topology calib: %w", err)
	}
	threshold := sched.HighUsageThreshold(calib.Store, 80)
	p99 := func(policy string) (float64, error) {
		res, err := core.Run(core.Options{
			App: tpch, Requests: n, Sampling: core.DefaultSampling(tpch),
			PolicyName: policy, UsageThreshold: threshold, Seed: cfg.Seed + 1,
		}, core.WithObserver(cfg.Obs))
		if err != nil {
			return 0, err
		}
		return stats.Percentile(res.Store.MetricValues(metrics.CPI), 99), nil
	}
	paperP99, err := p99("contention-easing")
	if err != nil {
		return nil, fmt.Errorf("ablations topology: %w", err)
	}
	topoP99, err := p99("topology-aware")
	if err != nil {
		return nil, fmt.Errorf("ablations topology: %w", err)
	}
	out.Rows = append(out.Rows, AblationRow{
		Name: "topology-blind vs -aware policy", On: paperP99, Off: topoP99, Unit: "p99 CPI",
		Meaning: "the extension targets same-package capacity contention directly",
	})

	return out, nil
}

// String renders the probe table.
func (r *AblationsResult) String() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("%.3f", row.On),
			fmt.Sprintf("%.3f", row.Off),
			fmt.Sprintf("%.2fx", row.Ratio()),
			row.Unit,
			row.Meaning,
		})
	}
	var b strings.Builder
	b.WriteString("Ablations: design-choice probes (mechanism on vs off)\n")
	b.WriteString(table([]string{"mechanism", "on", "off", "ratio", "unit", "meaning"}, rows))
	return b.String()
}
