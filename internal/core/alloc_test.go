package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/trace"
	"repro/internal/workload"
)

// A traced TPC-H run records about ten thousand system calls per request.
// Each request's stream is allocated once, at the size its phase plan
// predicts, so the whole run allocates at most twice the bytes its traces
// keep. A stream that regrows by append copies itself about four times over.
func TestTracedRunAllocationBound(t *testing.T) {
	app := workload.NewTPCH()
	opts := Options{App: app, Requests: 24, Sampling: DefaultSampling(app), Seed: 1}
	if _, err := Run(opts); err != nil { // warm lazily built tables
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	var kept uint64
	for _, tr := range res.Store.Traces {
		kept += uint64(cap(tr.Syscalls)) * uint64(unsafe.Sizeof(trace.SyscallEvent{}))
		kept += uint64(cap(tr.Periods)) * uint64(unsafe.Sizeof(trace.Period{}))
	}
	total := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d bytes, traces keep %d (%.2fx)", total, kept, float64(total)/float64(kept))
	if total > 2*kept {
		t.Fatalf("run allocated %d bytes, more than twice the %d its traces keep", total, kept)
	}
}
