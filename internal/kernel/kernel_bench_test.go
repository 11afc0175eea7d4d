package kernel

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkWebLoad measures end-to-end simulation throughput: a concurrent
// web load of 200 requests on the 4-core machine.
func BenchmarkWebLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		k := New(eng, DefaultConfig())
		d := NewDriver(k, LoadConfig{
			App: workload.NewWebServer(), Concurrency: 8, Requests: 200, Seed: 1,
		})
		d.Start()
		eng.RunAll()
		if d.Completed() != 200 {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkTPCHLoad exercises the long-request path (many system calls)
// with no tracker attached, so nothing records the calls; the sampling
// package's BenchmarkTrackedTPCH adds the tracker.
func BenchmarkTPCHLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		k := New(eng, DefaultConfig())
		d := NewDriver(k, LoadConfig{
			App: workload.NewTPCH(), Concurrency: 8, Requests: 10, Seed: 1,
		})
		d.Start()
		eng.RunAll()
	}
}
