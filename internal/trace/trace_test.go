package trace

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/timeseries"
)

func sampleTrace() *Request {
	r := &Request{ID: 1, App: "app", Type: "t", Start: 0, End: 1000, AppIns: 300}
	r.AddPeriod(100, metrics.Counters{Cycles: 200, Instructions: 100, L2Refs: 10, L2Misses: 2})
	r.AddPeriod(100, metrics.Counters{Cycles: 600, Instructions: 200, L2Refs: 40, L2Misses: 20})
	r.AddSyscall(SysRead, 100, 100)
	r.AddSyscall(SysWrite, 250, 180)
	return r
}

func TestTotalsAndMetrics(t *testing.T) {
	r := sampleTrace()
	tot := r.Totals()
	if tot.Cycles != 800 || tot.Instructions != 300 {
		t.Fatalf("totals = %v", tot)
	}
	if got := r.MetricValue(metrics.CPI); got != 800.0/300.0 {
		t.Fatalf("CPI = %v", got)
	}
	if r.CPUTime() != 200 {
		t.Fatalf("CPUTime = %v", r.CPUTime())
	}
	if r.Instructions() != 300 {
		t.Fatalf("Instructions = %v", r.Instructions())
	}
}

func TestAddPeriodDropsEmpty(t *testing.T) {
	r := &Request{}
	r.AddPeriod(0, metrics.Counters{})
	if len(r.Periods) != 0 {
		t.Fatal("empty period added")
	}
	r.AddPeriod(5, metrics.Counters{})
	if len(r.Periods) != 1 {
		t.Fatal("non-empty-duration period dropped")
	}
}

func TestSeries(t *testing.T) {
	r := sampleTrace()
	s := r.Series(metrics.CPI, timeseries.Instructions)
	if s.Len() != 2 {
		t.Fatalf("series len = %d", s.Len())
	}
	if s.Points[0].Value != 2.0 || s.Points[1].Value != 3.0 {
		t.Fatalf("series values = %v", s.Values())
	}
	if s.Points[0].Len != 100 || s.Points[1].Len != 200 {
		t.Fatalf("series lengths = %v", s.Lengths())
	}
	// Nanos unit uses durations as lengths.
	sn := r.Series(metrics.CPI, timeseries.Nanos)
	if sn.Points[0].Len != 100 {
		t.Fatalf("nanos lengths = %v", sn.Lengths())
	}
	// Miss ratio series skips zero-reference periods.
	r2 := &Request{}
	r2.AddPeriod(50, metrics.Counters{Cycles: 100, Instructions: 50})
	if got := r2.Series(metrics.L2MissRatio, timeseries.Instructions).Len(); got != 0 {
		t.Fatalf("zero-ref period included in miss-ratio series: %d", got)
	}
}

func TestResampled(t *testing.T) {
	r := sampleTrace()
	vals := r.Resampled(metrics.CPI, 150)
	if len(vals) != 2 {
		t.Fatalf("resampled = %v", vals)
	}
	// First bucket: 100 ins at CPI 2 + 50 ins at CPI 3 → 2.333…
	want := (100*2.0 + 50*3.0) / 150
	if diff := vals[0] - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("bucket 0 = %v, want %v", vals[0], want)
	}
}

func TestSyscallHelpers(t *testing.T) {
	r := sampleTrace()
	names := r.SyscallNames()
	if len(names) != 2 || names[0] != "read" || names[1] != "write" {
		t.Fatalf("names = %v", names)
	}
	ins, cpu := r.SyscallGaps()
	// Gaps: 0→100, 100→250, 250→300 (trailing).
	if len(ins) != 3 || ins[0] != 100 || ins[1] != 150 || ins[2] != 50 {
		t.Fatalf("ins gaps = %v", ins)
	}
	if len(cpu) != 3 || cpu[0] != 100 || cpu[1] != 80 {
		t.Fatalf("cpu gaps = %v", cpu)
	}
	if cpu[2] != sim.Time(200-180) {
		t.Fatalf("trailing cpu gap = %v", cpu[2])
	}
}

// The trailing gap ends at the request's application instruction total,
// the axis SyscallEvent.Ins is measured on, not at the counter total.
func TestTrailingGapUsesApplicationInstructions(t *testing.T) {
	r := sampleTrace()
	r.AppIns = 280 // the counters also hold 20 injected kernel instructions
	ins, _ := r.SyscallGaps()
	if len(ins) != 3 || ins[2] != 30 {
		t.Fatalf("ins gaps = %v, want trailing gap 30", ins)
	}
	r.AppIns = 0 // a trace never completed by a tracker has no trailing gap
	if ins, _ := r.SyscallGaps(); len(ins) != 2 {
		t.Fatalf("ins gaps = %v, want no trailing gap", ins)
	}
}

func TestStore(t *testing.T) {
	s := &Store{}
	a := sampleTrace()
	b := sampleTrace()
	b.Type = "u"
	s.Add(a)
	s.Add(b)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	groups := s.ByType()
	if len(groups["t"]) != 1 || len(groups["u"]) != 1 {
		t.Fatalf("ByType = %v", groups)
	}
	if got := s.MetricValues(metrics.CPI); len(got) != 2 {
		t.Fatalf("MetricValues = %v", got)
	}
	if got := s.CPUTimes(); got[0] != 200 {
		t.Fatalf("CPUTimes = %v", got)
	}
}

func TestString(t *testing.T) {
	if sampleTrace().String() == "" {
		t.Fatal("empty trace string")
	}
}
