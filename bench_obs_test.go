// BenchmarkObsOverhead quantifies the observability layer's cost on the
// three hottest instrumented paths — the simulated kernel's scheduling
// loop, the signature session's per-update cascade, and the service
// engine's tick — with the collector detached (the production default: nil
// handles, one branch per hook site), fully attached, and (kernel only)
// attached in 1-in-64 sampling mode. The serve legs also price the
// engine's identify-latency timing, its only host-clock read, which runs
// only with a collector attached.
//
// Run with:
//
//	go test -bench BenchmarkObsOverhead -benchmem
package repro_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/signature"
	"repro/internal/workload"
)

// BenchmarkObsOverhead/kernel-* run a small closed-loop web workload (the
// highest event rate per request of the five applications) through
// core.Run; /session-* stream prefixes through signature sessions, one per
// parallel goroutine, reset between requests; /serve-* push 100k requests
// per op through a warmed single-worker default engine.
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

	sessionRun := func(b *testing.B, col *obs.Collector) {
		bank, streams := identifyFixture()
		matcher := signature.NewMatcher(bank)
		var workers atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			ses := matcher.NewSession()
			ses.SetObserver(col)
			next := int(workers.Add(1))
			for pb.Next() {
				next++
				ses.Reset()
				for _, v := range streams[next%len(streams)] {
					ses.Extend(v)
					ses.Best()
				}
			}
		})
	}
	b.Run("session-off", func(b *testing.B) { sessionRun(b, nil) })
	b.Run("session-on", func(b *testing.B) { sessionRun(b, obs.New("bench")) })

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
