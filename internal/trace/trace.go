// Package trace holds per-request execution timelines: the time-ordered
// hardware-counter periods and system call events that the sampling layer
// attributes to each request. A trace is the raw material for every analysis
// in the paper — coefficient-of-variation characterization (Figure 3),
// request differencing and classification (Section 4), anomaly analysis,
// signature identification, and scheduling-time behavior prediction.
package trace

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/timeseries"
)

// Period is one measured execution period: the counter delta between two
// consecutive samples attributed to a request, and the wall (== CPU, since
// the request held the core) duration between them.
type Period struct {
	Dur sim.Time
	C   metrics.Counters
}

// SyscallEvent is one system call the request issued, positioned by the
// request's cumulative progress at the call's kernel entrance. It holds no
// pointers (24 bytes), so a request's event stream is one flat allocation
// the garbage collector never scans.
type SyscallEvent struct {
	// Ins is the request's cumulative application instruction position.
	Ins float64
	// CPUTime is the request's cumulative CPU time.
	CPUTime sim.Time
	// Call identifies the system call; Call.String() is its name.
	Call Syscall
}

// Request is a complete per-request trace.
type Request struct {
	ID        uint64
	App       string
	Type      string
	TypeIndex int
	// Start and End are wall-clock request boundaries.
	Start, End sim.Time
	// Periods is the serialized sequence of measured periods, spanning the
	// request's entire CPU execution across cores and processes.
	Periods []Period
	// Syscalls is the request's system call stream.
	Syscalls []SyscallEvent
	// AppIns is the request's application instruction total, recorded at
	// completion: the end of the instruction axis SyscallEvent.Ins is
	// measured on. The counter total (Instructions) also counts the kernel
	// work injected into the request.
	AppIns float64

	// cpuSummed/cpuPeriods cache the running duration sum over
	// Periods[:cpuPeriods], making CPUTime O(1) amortized. The sampling
	// layer calls CPUTime at every system call entrance; without the cache
	// that scan is quadratic in trace length. Periods only ever grows (see
	// AddPeriod), so summing the tail on demand is always correct.
	cpuSummed  sim.Time
	cpuPeriods int
}

// AddPeriod appends a measured period, dropping empty ones.
func (r *Request) AddPeriod(dur sim.Time, c metrics.Counters) {
	if dur <= 0 && c.IsZero() {
		return
	}
	r.Periods = append(r.Periods, Period{Dur: dur, C: c})
}

// AddSyscall appends a system call event.
func (r *Request) AddSyscall(call Syscall, ins float64, cpu sim.Time) {
	r.Syscalls = append(r.Syscalls, SyscallEvent{Ins: ins, CPUTime: cpu, Call: call})
}

// Totals returns the summed counters over all periods.
func (r *Request) Totals() metrics.Counters {
	var t metrics.Counters
	for _, p := range r.Periods {
		t = t.Add(p.C)
	}
	return t
}

// CPUTime returns the request's total CPU execution time.
func (r *Request) CPUTime() sim.Time {
	for _, p := range r.Periods[r.cpuPeriods:] {
		r.cpuSummed += p.Dur
	}
	r.cpuPeriods = len(r.Periods)
	return r.cpuSummed
}

// Instructions returns the request's total retired instructions.
func (r *Request) Instructions() uint64 { return r.Totals().Instructions }

// MetricValue returns the whole-request value of metric m (e.g., the
// per-request CPI of Figure 1).
func (r *Request) MetricValue(m metrics.Metric) float64 {
	return r.Totals().Value(m)
}

// Series builds the request's time series for metric m, with period lengths
// in the given unit. Periods whose weight is zero (no instructions, or no
// L2 references for the miss ratio) are skipped.
func (r *Request) Series(m metrics.Metric, unit timeseries.Unit) *timeseries.Series {
	s := timeseries.New(unit)
	for _, p := range r.Periods {
		var length float64
		switch unit {
		case timeseries.Instructions:
			length = float64(p.C.Instructions)
		case timeseries.Nanos:
			length = float64(p.Dur)
		}
		if w := p.C.Weight(m); w <= 0 {
			continue
		}
		s.Append(length, p.C.Value(m))
	}
	return s
}

// InsSeries is Series with instruction-count period lengths — the unit the
// paper's request-progress analyses use.
func (r *Request) InsSeries(m metrics.Metric) *timeseries.Series {
	return r.Series(m, timeseries.Instructions)
}

// Resampled returns metric m resampled into fixed instruction-length
// buckets — the "sequence of measured metric values for fixed-length
// periods" Section 4.1's distances consume.
func (r *Request) Resampled(m metrics.Metric, bucketIns float64) []float64 {
	return r.Series(m, timeseries.Instructions).Resample(bucketIns)
}

// SyscallNames returns the request's system call name sequence, the input
// to Magpie-style Levenshtein differencing.
func (r *Request) SyscallNames() []string {
	out := make([]string, len(r.Syscalls))
	for i, s := range r.Syscalls {
		out[i] = s.Call.String()
	}
	return out
}

// SyscallGaps returns the distances between consecutive system calls (and
// from the request start to the first one, and from the last one to the
// request end) in application instructions and CPU time. These gap
// populations underlie the paper's Figure 4 CDFs.
func (r *Request) SyscallGaps() (ins []float64, cpu []sim.Time) {
	prevIns, prevCPU := 0.0, sim.Time(0)
	for _, s := range r.Syscalls {
		ins = append(ins, s.Ins-prevIns)
		cpu = append(cpu, s.CPUTime-prevCPU)
		prevIns, prevCPU = s.Ins, s.CPUTime
	}
	// Trailing gap to request end.
	if r.AppIns > prevIns {
		ins = append(ins, r.AppIns-prevIns)
		cpu = append(cpu, r.CPUTime()-prevCPU)
	}
	return ins, cpu
}

func (r *Request) String() string {
	return fmt.Sprintf("trace %s/%s#%d: %d periods, %d syscalls, %v CPU",
		r.App, r.Type, r.ID, len(r.Periods), len(r.Syscalls), r.CPUTime())
}

// Store collects completed request traces for offline analysis.
type Store struct {
	Traces []*Request
}

// Add appends a trace.
func (s *Store) Add(r *Request) { s.Traces = append(s.Traces, r) }

// Len reports the number of traces.
func (s *Store) Len() int { return len(s.Traces) }

// ByType groups traces by request type.
func (s *Store) ByType() map[string][]*Request {
	out := map[string][]*Request{}
	for _, r := range s.Traces {
		out[r.Type] = append(out[r.Type], r)
	}
	return out
}

// MetricValues extracts the whole-request metric value of every trace.
func (s *Store) MetricValues(m metrics.Metric) []float64 {
	out := make([]float64, len(s.Traces))
	for i, r := range s.Traces {
		out[i] = r.MetricValue(m)
	}
	return out
}

// CPUTimes extracts every trace's CPU time in nanoseconds.
func (s *Store) CPUTimes() []float64 {
	out := make([]float64, len(s.Traces))
	for i, r := range s.Traces {
		out[i] = float64(r.CPUTime())
	}
	return out
}
