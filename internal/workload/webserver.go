package workload

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
)

// WebServer models the Apache 2.2.3 web server serving the static content
// portion of SPECweb99: four classes of files from 100 bytes to 900 KB
// (200 MB total dataset). Requests are short — a few hundred thousand
// instructions — with very frequent system calls (the paper measures a 97%
// probability of a system call within 16 µs of any instant), and the
// characteristic phase structure the paper's Table 2 mines for behavior
// transition signals: the writev that starts HTTP header writing signals a
// large CPI increase (fragmented piecemeal memory accesses), while lseek
// and stat precede CPI drops.
type WebServer struct{}

// NewWebServer returns the web server workload.
func NewWebServer() *WebServer { return &WebServer{} }

// Name implements App.
func (*WebServer) Name() string { return "webserver" }

// SamplingPeriod implements App: the paper samples the web server's short
// requests once per 10 microseconds.
func (*WebServer) SamplingPeriod() sim.Time { return 10 * sim.Microsecond }

// Tiers implements App: Apache serves static files in one process class.
func (*WebServer) Tiers() int { return 1 }

// specwebClass describes one SPECweb99 static file class.
type specwebClass struct {
	name     string
	weight   float64
	minBytes float64
	maxBytes float64
}

// specwebClasses follows the SPECweb99 static mix: class 1 (sub-KB) 35%,
// class 2 (KBs) 50%, class 3 (tens of KB) 14%, class 4 (hundreds of KB) 1%.
var specwebClasses = []specwebClass{
	{"class0", 0.35, 100, 900},
	{"class1", 0.50, 1 << 10, 9 << 10},
	{"class2", 0.14, 10 << 10, 90 << 10},
	{"class3", 0.01, 100 << 10, 900 << 10},
}

const sendChunkBytes = 8 << 10

// Within-phase system call patterns, shared by every request.
var (
	webParseCalls = []trace.Syscall{trace.SysRead}
	webSendCalls  = []trace.Syscall{trace.SysWrite, trace.SysSendfile}
)

// NewRequest implements App.
func (w *WebServer) NewRequest(id uint64, g *sim.RNG) *Request {
	weights := make([]float64, len(specwebClasses))
	for i, c := range specwebClasses {
		weights[i] = c.weight
	}
	ci := g.Pick(weights)
	class := specwebClasses[ci]
	fileBytes := g.Uniform(class.minBytes, class.maxBytes)
	chunks := int(fileBytes/sendChunkBytes) + 1
	// SPECweb99 classes live in different directory trees and file sizes
	// span four decades: larger files have deeper paths, more metadata
	// blocks, and bigger scatter-gather structures, so the early control
	// phases carry a size-identifying variation pattern (more lookup work,
	// hotter prepare) while the average reference rate stays similar —
	// exactly the structure online signature identification (Section 4.4)
	// exploits.
	cf := 3 * math.Log(fileBytes/100) / math.Log(9000)

	// Control phases touch connection state and parse buffers; the send
	// loop streams the file plus kernel socket buffers through the cache,
	// and concurrent transfers of distinct files contend for L2 space.
	ctlWS := 192 << 10
	fileWS := fileBytes*1.5 + float64(256<<10)
	if fileWS > 2.5*float64(1<<20) {
		fileWS = 2.5 * float64(1<<20)
	}

	ph := []Phase{
		// Event-loop bookkeeping before the connection is accepted: low
		// CPI, establishing the "before" level for the poll transition.
		// Long enough to amortize the preceding context switch's costs, so
		// the poll transition's "before" window reflects the idle loop.
		{Name: "waitloop", Instructions: jitter(g, 30e3, 0.2),
			Activity: actFor(g, 1.0, 0.002, 0.05, float64(ctlWS))},
		// poll returns with the new connection; accept path has moderate
		// CPI (Table 2: poll → increase).
		{Name: "accept", EntrySyscall: trace.SysPoll, Instructions: jitter(g, 10e3, 0.2),
			Activity: actFor(g, 2.2, 0.010, 0.08, float64(ctlWS))},
		// read pulls in the HTTP request; parsing is branchy and slow
		// (read → increase).
		{Name: "parse", EntrySyscall: trace.SysRead, Instructions: jitter(g, 28e3, 0.25),
			Activity:   actFor(g, 2.8, 0.014-0.002*cf, 0.08, float64(ctlWS)),
			SyscallGap: 9e3, Syscalls: webParseCalls},
		// stat checks the file; the lookup that follows is cheap
		// (stat → decrease).
		{Name: "lookup", EntrySyscall: trace.SysStat,
			Instructions: jitter(g, 8e3+7e3*cf, 0.2),
			Activity:     actFor(g, 1.4, 0.006+0.004*cf, 0.06, float64(ctlWS))},
		// open the file (open → slight decrease).
		{Name: "openfile", EntrySyscall: trace.SysOpen, Instructions: jitter(g, 8e3, 0.2),
			Activity: actFor(g, 1.25, 0.008, 0.06, float64(ctlWS))},
		// Response preparation maps the file and walks metadata structures:
		// high CPI (mmap → increase).
		{Name: "prepare", EntrySyscall: trace.SysMmap,
			Instructions: jitter(g, 9e3+3e3*cf, 0.2),
			Activity:     actFor(g, 3.2, 0.016+0.005*cf, 0.12, float64(ctlWS))},
		// lseek positions the file; the send setup is cheap
		// (lseek → decrease).
		{Name: "sendprep", EntrySyscall: trace.SysLseek, Instructions: jitter(g, 8e3, 0.2),
			Activity: actFor(g, 1.2, 0.006, 0.06, float64(ctlWS))},
		// writev writes HTTP headers from fragmented pieces: the paper's
		// signature high-CPI phase (writev → large increase).
		{Name: "headers", EntrySyscall: trace.SysWritev, Instructions: jitter(g, 10e3, 0.15),
			Activity: actFor(g, 4.9, 0.040, 0.10, float64(ctlWS))},
	}
	for c := 0; c < chunks; c++ {
		ph = append(ph, Phase{
			Name:         fmt.Sprintf("sendchunk%d", c),
			EntrySyscall: trace.SysWrite,
			Instructions: jitter(g, 14e3, 0.15),
			Activity:     actFor(g, 1.6, 0.035, 0.30, fileWS),
			SyscallGap:   7e3,
			Syscalls:     webSendCalls,
			BlockProb:    0.05,
			BlockMeanNs:  float64(100 * sim.Microsecond),
		})
	}
	ph = append(ph, Phase{
		Name:         "teardown",
		EntrySyscall: trace.SysShutdown,
		Instructions: jitter(g, 10e3, 0.2),
		Activity:     actFor(g, 2.8, 0.010, 0.08, float64(ctlWS)),
	})

	return &Request{
		ID:        id,
		App:       w.Name(),
		Type:      class.name,
		TypeIndex: ci,
		Phases:    ph,
		RNG:       g.Fork(),
	}
}
