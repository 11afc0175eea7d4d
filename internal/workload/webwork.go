package workload

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// WeBWorK models the user-content-driven online teaching application:
// Apache with a large stack of Perl modules and the Moodle course
// management system, serving ~3,000 teacher-created problem sets. Its
// requests are the longest in the study (up to ~600 M instructions) and are
// CPU-intensive — math computation and graphics rendering make few system
// calls (an 81% probability of one within a millisecond) — with fine-grained
// unstable phase behavior from the many small Perl modules each request
// traverses. Two properties matter for the paper's experiments:
//
//   - every request follows almost identical processing semantics for its
//     early part (session and course management setup), which defeats
//     signatures built from only the first 10 M instructions (Figure 10);
//   - small working sets and low L2 reference rates make WeBWorK nearly
//     immune to multicore performance obfuscation (Figure 1).
type WeBWorK struct {
	// problems, when non-empty, restricts requests to these problem ids
	// (experiments that need same-problem request pairs use this).
	problems []int
}

// NewWeBWorK returns the WeBWorK workload over the full problem library.
func NewWeBWorK() *WeBWorK { return &WeBWorK{} }

// NewWeBWorKProblems returns a WeBWorK workload restricted to the given
// problem identifiers, so that a modest run yields several requests per
// problem (the anomaly-reference setup of Figure 9).
func NewWeBWorKProblems(ids ...int) *WeBWorK {
	return &WeBWorK{problems: append([]int(nil), ids...)}
}

// Name implements App.
func (*WeBWorK) Name() string { return "webwork" }

// SamplingPeriod implements App: long-request applications sample once per
// millisecond.
func (*WeBWorK) SamplingPeriod() sim.Time { return sim.Millisecond }

// Tiers implements App: mod_perl runs inside the Apache process.
func (*WeBWorK) Tiers() int { return 1 }

// webworkProblems is the size of the teacher-created problem library.
const webworkProblems = 3000

// webworkSeed decorrelates problem structure streams from everything else.
const webworkSeed = 0x5eb02c

// perl module texture: names drawn for phase labels only.
var webworkModules = []string{
	"PGbasicmacros", "PGanswermacros", "PGgraphmacros", "MathObjects",
	"Parser", "AnswerChecker", "Units", "PGauxiliaryFunctions",
}

// Within-phase system call patterns, shared by every request.
var (
	webworkInitCalls    = []trace.Syscall{trace.SysStat, trace.SysOpen, trace.SysRead}
	webworkAuthCalls    = []trace.Syscall{trace.SysRead, trace.SysWrite}
	webworkCourseCalls  = []trace.Syscall{trace.SysRead, trace.SysStat}
	webworkModuleCalls  = []trace.Syscall{trace.SysBrk, trace.SysRead, trace.SysWrite}
	webworkRespondCalls = []trace.Syscall{trace.SysWrite}
)

// NewRequest implements App. The problem identifier determines the
// problem-specific phase structure through its own deterministic stream, so
// two requests for the same problem share structure up to small per-request
// jitter — the anomaly-reference setup of Figure 9.
func (w *WeBWorK) NewRequest(id uint64, g *sim.RNG) *Request {
	var problem int
	if len(w.problems) > 0 {
		problem = w.problems[g.Intn(len(w.problems))]
	} else {
		problem = 1 + g.Intn(webworkProblems)
	}
	return w.RequestForProblem(id, problem, g)
}

// RequestForProblem builds a request for a specific problem identifier.
// Experiments that need same-problem pairs (Figure 9 uses problem 954) call
// this directly.
func (w *WeBWorK) RequestForProblem(id uint64, problem int, g *sim.RNG) *Request {
	// The common early part: session handling, authentication, Moodle
	// course lookup. Nearly identical for every request.
	ph := []Phase{
		{Name: "session-init", EntrySyscall: trace.SysRead,
			Instructions: jitter(g, 4e6, 0.03),
			Activity:     actFor(g, 1.25, 0.004, 0.10, 512<<10),
			SyscallGap:   1.5e6, Syscalls: webworkInitCalls},
		{Name: "moodle-auth",
			Instructions: jitter(g, 3e6, 0.03),
			Activity:     actFor(g, 1.35, 0.005, 0.10, 512<<10),
			SyscallGap:   1.5e6, Syscalls: webworkAuthCalls},
		{Name: "course-load", EntrySyscall: trace.SysOpen,
			Instructions: jitter(g, 5e6, 0.03),
			Activity:     actFor(g, 1.30, 0.004, 0.10, 768<<10),
			SyscallGap:   1.5e6, Syscalls: webworkCourseCalls},
	}

	// Problem-specific content generation: the problem's own stream defines
	// the module sequence; the request's stream adds only small jitter.
	pg := sim.ForkLabeled(webworkSeed, fmt.Sprintf("problem-%d", problem))
	nPhases := 20 + pg.Intn(140) // 20–160 interpreter/module phases
	for i := 0; i < nPhases; i++ {
		name := webworkModules[pg.Intn(len(webworkModules))]
		meanIns := pg.Uniform(0.6e6, 3.2e6)
		cpi := pg.Uniform(1.0, 1.9)
		refs := pg.Uniform(0.002, 0.008)
		ws := pg.Uniform(200e3, 800e3)
		p := Phase{
			Name:         fmt.Sprintf("%s-%d", name, i),
			Instructions: jitter(g, meanIns, 0.05),
			Activity:     actFor(g, cpi, refs, 0.10, ws),
			SyscallGap:   1.3e6,
			Syscalls:     webworkModuleCalls,
		}
		// Occasional module loads issue an open at entry.
		if pg.Bool(0.15) {
			p.EntrySyscall = trace.SysOpen
		}
		// Graphics rendering bursts: tens of millions of instructions of
		// elevated CPI, like the sustained high-CPI regions in the paper's
		// Figure 2 WeBWorK example.
		if pg.Bool(0.06) {
			p.Name = fmt.Sprintf("render-%d", i)
			p.Instructions = jitter(g, pg.Uniform(15e6, 35e6), 0.05)
			// Graphics rendering touches image buffers: the one WeBWorK
			// activity with enough cache footprint that coincidental
			// render-render co-execution produces the rare worst-case CPI
			// tail contention-easing scheduling targets (Figure 13).
			p.Activity = actFor(g, 1.8, 0.014, 0.18, 3<<20)
		}
		ph = append(ph, p)
	}
	ph = append(ph, Phase{Name: "respond", EntrySyscall: trace.SysWritev,
		Instructions: jitter(g, 2e6, 0.1),
		Activity:     actFor(g, 1.4, 0.006, 0.10, 512<<10),
		SyscallGap:   400e3, Syscalls: webworkRespondCalls})

	return &Request{
		ID:        id,
		App:       w.Name(),
		Type:      fmt.Sprintf("problem-%d", problem),
		TypeIndex: problem,
		Phases:    ph,
		RNG:       g.Fork(),
	}
}
