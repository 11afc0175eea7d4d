// Benchmark for fleet mode (serve.Fleet): one op pushes 200k simulated
// requests through the fleet pipeline — policy placement, per-package
// contention snapshots, package execution, per-node bank
// compaction and fleet-wide merges — on the standard heterogeneous
// 16-core fleet, after a warmup that grows every pool. The headline claims
// are the steady-state allocation count (guarded at ~0 per request) and
// the virtual end-to-end latency p99, reported as a custom "-ns" metric
// that cmd/benchjson carries into the perf snapshot.
//
// Run with:
//
//	go test -bench BenchmarkFleetSteadyState -benchmem
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/serve"
)

// benchFleet builds the default heterogeneous fleet and warms it through
// the flash crowd and several compaction/merge rounds, so queues, window
// rings, and merge scratch reach steady-state sizes before the timer
// starts.
func benchFleet(b *testing.B, policy serve.FleetPolicy) *serve.Fleet {
	b.Helper()
	cfg := serve.DefaultFleetConfig(1)
	cfg.Policy = policy
	f, err := serve.NewFleet(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// 200k arrivals ≈ 8.3 virtual seconds: past the 5s flash crowd, ~16
	// compaction rounds, ~4 fleet-wide bank merges.
	f.Process(200_000)
	return f
}

// BenchmarkFleetSteadyState is the headline fleet benchmark: 200k
// simulated requests per op through the warmed fleet. ns/op is the wall
// cost per 200k requests; req/s the resulting ingest rate; p99-ns the
// fleet-wide virtual end-to-end latency quantile. The allocation guard
// enforces the bounded-steady-state claim at benchmark time.
func BenchmarkFleetSteadyState(b *testing.B) {
	const perOp = 200_000
	for _, bc := range []struct {
		name   string
		policy serve.FleetPolicy
	}{
		{"rr-serial", serve.FleetRoundRobin},
		{"ease-serial", serve.FleetContentionEase},
	} {
		b.Run(bc.name, func(b *testing.B) {
			f := benchFleet(b, bc.policy)
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Process(perOp)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			res := f.Result()
			if res.Arrivals == 0 || res.CompactionRounds == 0 || res.Merges == 0 {
				b.Fatalf("fleet inert: %+v", res)
			}
			// Every leg must hold ~0 allocations per request in steady state.
			if perReq := float64(after.Mallocs-before.Mallocs) / float64(b.N*perOp); perReq > 0.05 {
				b.Fatalf("steady state allocates %.3f objects/request, want ~0", perReq)
			}
			b.ReportMetric(res.P99Ns, "p99-ns")
			b.ReportMetric(float64(b.N)*perOp/b.Elapsed().Seconds(), "req/s")
			// Per-node health: only "-ns" metrics are regression-compared by
			// cmd/benchjson; shed/degraded counts are recorded for the
			// snapshot without gating (they track the stream, not the code).
			for _, n := range res.Nodes {
				b.ReportMetric(n.P99Ns, fmt.Sprintf("node%d-p99-ns", n.Node))
				b.ReportMetric(float64(n.Shed), fmt.Sprintf("node%d-shed", n.Node))
				b.ReportMetric(float64(n.Degraded), fmt.Sprintf("node%d-degraded", n.Node))
			}
		})
	}
}
