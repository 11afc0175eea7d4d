// BenchmarkObsOverhead quantifies the observability layer's cost on the
// two hottest instrumented paths — the simulated kernel's scheduling loop
// and the service engine's tick — with the collector detached (the
// production default: nil handles, one branch per hook site), fully
// attached, and (kernel only) attached in 1-in-64 sampling mode. The serve
// legs also price the engine's identify-latency timing, its only
// host-clock read, which runs only with a collector attached.
//
// Run with:
//
//	go test -bench BenchmarkObsOverhead -benchmem
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// BenchmarkObsOverhead/kernel-* run a small closed-loop web workload (the
// highest event rate per request of the five applications) through
// core.Run; /serve-* push 100k requests per op through a warmed
// single-worker default engine.
func BenchmarkObsOverhead(b *testing.B) {
	kernelRun := func(b *testing.B, col *obs.Collector) {
		app := workload.NewWebServer()
		opts := core.Options{App: app, Requests: 40, Seed: 7}
		for i := 0; i < b.N; i++ {
			res, err := core.Run(opts,
				core.WithSampling(core.DefaultSampling(app)),
				core.WithObserver(col))
			if err != nil {
				b.Fatal(err)
			}
			if res.Store.Len() != 40 {
				b.Fatalf("traced %d/40", res.Store.Len())
			}
		}
	}
	b.Run("kernel-off", func(b *testing.B) { kernelRun(b, nil) })
	b.Run("kernel-on", func(b *testing.B) { kernelRun(b, obs.New("bench")) })
	b.Run("kernel-sampled", func(b *testing.B) {
		col := obs.New("bench")
		col.SetSampleEvery(64)
		kernelRun(b, col)
	})

	serveRun := func(b *testing.B, col *obs.Collector) {
		e := benchServeEngine(b, 1, col)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Process(100_000)
		}
	}
	b.Run("serve-off", func(b *testing.B) { serveRun(b, nil) })
	b.Run("serve-on", func(b *testing.B) { serveRun(b, obs.New("bench")) })
}
