// Benchmark for the always-on service mode (package serve): one op pushes
// a million simulated requests through the full online pipeline — sharded
// streaming identification, sliding-window bank compaction, threshold
// recalibration, admission control — after a warmup that grows every pool.
// The headline claims are the steady-state allocation count (0 allocs/op)
// and the identify-path latency profile, reported as custom "-ns" metrics
// that cmd/benchjson carries into the perf snapshot.
//
// Run with:
//
//	go test -bench BenchmarkServeSteadyState -benchmem
package repro_test

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

// benchServeEngine builds a default engine and warms it past its first
// compactions so its pools reach their steady-state sizes before the
// timer starts. The engine keeps its
// identify-latency histogram only with a collector attached (col non-nil).
func benchServeEngine(b *testing.B, workers int, col *obs.Collector) *serve.Engine {
	b.Helper()
	cfg := serve.DefaultConfig(1)
	cfg.Workers = workers
	cfg.Obs = col
	e, err := serve.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	// Warm through the burst window, a full beat period of the two load
	// sinusoids (lcm of 50ms and 330ms ≈ 1.65s virtual ≈ 1.3M requests),
	// and ≥16 compaction cycles, so every pool has seen peak depth and
	// reached its steady-state size.
	e.Process(1_700_000)
	return e
}

// BenchmarkServeSteadyState is the headline service-mode benchmark: 1M
// simulated requests per op through the warmed pipeline, 0 allocs/op.
// ns/op is the wall cost per million requests; p50/p99/p999-ns are the
// identify-path latency quantiles over every timed bank scan, so the
// engine runs with a collector attached (BenchmarkObsOverhead/serve-off is
// the same pipeline detached).
func BenchmarkServeSteadyState(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // GOMAXPROCS workers (capped at shard count)
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := benchServeEngine(b, bc.workers, obs.New("bench"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Process(1_000_000)
			}
			b.StopTimer()
			res := e.Result()
			if res.Arrivals == 0 || res.Compactions == 0 {
				b.Fatalf("pipeline inert: %+v", res)
			}
			h := e.Histogram()
			b.ReportMetric(h.Quantile(0.50), "p50-ns")
			b.ReportMetric(h.Quantile(0.99), "p99-ns")
			b.ReportMetric(h.Quantile(0.999), "p999-ns")
			b.ReportMetric(float64(b.N)*1e6/b.Elapsed().Seconds()/1e6, "Mreq/s")
		})
	}
}
