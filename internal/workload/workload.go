// Package workload models the five server applications of the paper — the
// Apache web server serving SPECweb99 static content, TPC-C and TPC-H on
// MySQL, the three-tier RUBiS auction site, and the WeBWorK online teaching
// application — as synthetic request generators.
//
// The paper's analyses observe requests only through (a) their hardware
// characteristics over time (CPI, L2 references per instruction, L2 miss
// ratio), (b) their system call streams, and (c) their propagation across
// server processes. A request here is therefore a sequence of phases, each
// with inherent hardware characteristics (a machine.Activity), a tier (which
// server process class executes it), an optional phase-entry system call
// (the paper's "behavior transition signal"), and a within-phase system
// call pattern. Per-request jitter makes same-type requests similar but not
// identical, exactly the structure the classification, anomaly, and
// signature experiments need.
package workload

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Phase is one homogeneous stretch of a request's execution.
type Phase struct {
	// Name labels the phase for traces and debugging.
	Name string
	// Tier selects which server process class executes the phase (0 =
	// front-most). Multi-tier applications like RUBiS propagate the request
	// across processes via socket operations when the tier changes.
	Tier int
	// Instructions is the phase's application instruction count.
	Instructions float64
	// Activity is the phase's inherent hardware characteristics.
	Activity machine.Activity
	// EntrySyscall, unless trace.NoSyscall, is the system call issued on
	// entering the phase. Because it immediately precedes a behavior
	// change, it is exactly the kind of "behavior transition signal"
	// Section 3.2 mines.
	EntrySyscall trace.Syscall
	// SyscallGap is the mean instruction distance between within-phase
	// system calls (exponentially distributed); 0 means the phase makes no
	// system calls beyond EntrySyscall.
	SyscallGap float64
	// Syscalls are the within-phase system calls, cycled in order. The
	// applications share one slice per call pattern; nothing writes to it.
	Syscalls []trace.Syscall
	// BlockProb is the probability that a within-phase system call blocks
	// (I/O wait), descheduling the thread.
	BlockProb float64
	// BlockMeanNs is the mean block duration in virtual nanoseconds.
	BlockMeanNs float64
}

// Request is one user request: the unit the paper models and schedules.
type Request struct {
	// ID is unique within a run.
	ID uint64
	// App is the generating application's name.
	App string
	// Type is the request's semantic class ("new order", "Q20", problem id…).
	Type string
	// TypeIndex is the dense index of Type within the application.
	TypeIndex int
	// Phases is the execution program.
	Phases []Phase
	// RNG drives lazy per-request draws (system call positions, block
	// durations) so request behavior is reproducible in isolation.
	RNG *sim.RNG
}

// TotalInstructions sums the phase lengths.
func (r *Request) TotalInstructions() float64 {
	var t float64
	for _, p := range r.Phases {
		t += p.Instructions
	}
	return t
}

func (r *Request) String() string {
	return fmt.Sprintf("%s/%s#%d", r.App, r.Type, r.ID)
}

// App generates requests for one application.
type App interface {
	// Name returns the application's name.
	Name() string
	// NewRequest builds request id using randomness from g.
	NewRequest(id uint64, g *sim.RNG) *Request
	// SamplingPeriod is the paper's per-application periodic sampling
	// granularity (Section 3.1): 10 µs for the web server, 100 µs for TPCC
	// and RUBiS, 1 ms for TPCH and WeBWorK.
	SamplingPeriod() sim.Time
	// Tiers is the number of server process classes requests traverse.
	Tiers() int
}

// jitter scales mean by a clamped normal factor with the given relative
// standard deviation, bounded to [0.25, 4] × mean to keep draws sane.
func jitter(g *sim.RNG, mean, rel float64) float64 {
	if mean == 0 {
		return 0
	}
	return g.ClampedNormal(mean, mean*rel, mean*0.25, mean*4)
}

// jact builds an Activity jittered around base characteristics. Relative
// noise is modest so requests of one type stay recognizably similar.
func jact(g *sim.RNG, baseCPI, refsPerIns, missRatio, workingSet float64) machine.Activity {
	return machine.Activity{
		BaseCPI:         jitter(g, baseCPI, 0.06),
		RefsPerIns:      jitter(g, refsPerIns, 0.10),
		SoloMissRatio:   clamp01(jitter(g, missRatio, 0.10)),
		WorkingSetBytes: jitter(g, workingSet, 0.10),
	}
}

// actFor builds a jittered Activity whose *solo* effective CPI lands near
// targetCPI, by solving the default cache cost model for the base CPI. This
// lets application definitions be calibrated directly in the observable
// quantity the paper plots.
func actFor(g *sim.RNG, targetCPI, refsPerIns, missRatio, workingSet float64) machine.Activity {
	cfg := cache.DefaultConfig()
	base := targetCPI - (cache.CPI(cfg, 0, refsPerIns, missRatio, 1))
	if base < 0.3 {
		base = 0.3
	}
	return jact(g, base, refsPerIns, missRatio, workingSet)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// ByName returns the named application with the given workload seed, or an
// error for unknown names. Valid names: webserver, tpcc, tpch, rubis,
// webwork.
func ByName(name string) (App, error) {
	switch name {
	case "webserver":
		return NewWebServer(), nil
	case "tpcc":
		return NewTPCC(), nil
	case "tpch":
		return NewTPCH(), nil
	case "rubis":
		return NewRUBiS(), nil
	case "webwork":
		return NewWeBWorK(), nil
	default:
		return nil, fmt.Errorf("workload: unknown application %q", name)
	}
}

// All returns the five server applications in the paper's presentation
// order.
func All() []App {
	return []App{NewWebServer(), NewTPCC(), NewTPCH(), NewRUBiS(), NewWeBWorK()}
}
