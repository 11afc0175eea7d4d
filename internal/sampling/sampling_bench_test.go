package sampling

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkTrackedLoad measures the tracking layer's cost on top of the
// kernel simulation (compare with kernel.BenchmarkWebLoad).
func BenchmarkTrackedLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		k := kernel.New(eng, kernel.DefaultConfig())
		tk := NewTracker(k, Config{Mode: Interrupt, Period: 10 * sim.Microsecond, Compensate: true})
		d := kernel.NewDriver(k, kernel.LoadConfig{
			App: workload.NewWebServer(), Concurrency: 8, Requests: 200, Seed: 1,
		})
		d.Start()
		eng.RunAll()
		if tk.Store().Len() != 200 {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkTrackedTPCH measures the recording path: a traced TPC-H load,
// whose long scans issue about ten thousand system calls per request, each
// appended to the request's trace. kernel.BenchmarkTPCHLoad runs the same
// load with no tracker attached.
func BenchmarkTrackedTPCH(b *testing.B) {
	app := workload.NewTPCH()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		k := kernel.New(eng, kernel.DefaultConfig())
		tk := NewTracker(k, Config{Mode: Interrupt, Period: app.SamplingPeriod(), Compensate: true})
		d := kernel.NewDriver(k, kernel.LoadConfig{
			App: app, Concurrency: 8, Requests: 10, Seed: 1,
		})
		d.Start()
		eng.RunAll()
		if tk.Store().Len() != 10 {
			b.Fatal("incomplete")
		}
	}
}
