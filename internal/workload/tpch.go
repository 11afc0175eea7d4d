package workload

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TPCH models the decision-support benchmark on MySQL with the paper's
// 17-query subset (Q2–Q22, excluding the longest-running five) over a
// 361 MB dataset, with an equal proportion of requests per query type.
// TPCH requests are long (tens to hundreds of millions of instructions) and
// behaviorally uniform within a request — each query streams a specific
// scan/join plan over a long data sequence — which is why TPCH is the one
// application where intra-request variation adds little over inter-request
// variation (Figure 3). Large scan working sets and high reference rates
// make TPCH the most contention-sensitive application: its 90-percentile
// request CPI doubles from 1-core to 4-core runs (Figure 1).
type TPCH struct{}

// NewTPCH returns the TPC-H workload.
func NewTPCH() *TPCH { return &TPCH{} }

// Name implements App.
func (*TPCH) Name() string { return "tpch" }

// SamplingPeriod implements App: the paper samples long-request applications
// once per millisecond.
func (*TPCH) SamplingPeriod() sim.Time { return sim.Millisecond }

// Tiers implements App.
func (*TPCH) Tiers() int { return 1 }

// tpchQuery calibrates one query's plan: total instructions, the dominant
// scan characteristics, and an optional join stage.
type tpchQuery struct {
	name      string
	megaIns   float64 // mean total instructions, in millions
	scanCPI   float64
	scanRefs  float64
	scanMiss  float64
	scanWS    float64
	joinFrac  float64 // fraction of instructions in the join stage (0 = scan only)
	joinCPI   float64
	joinRefs  float64
	joinMiss  float64
	joinWS    float64
	aggregate bool // small final aggregation stage
}

// tpchQueries is the paper's 17-query subset. Lengths and intensities are
// spread so per-query CPI clusters span the 1.5–2.5 solo range of Figure 1
// and request lengths span roughly 15–250 M instructions (Q20 near the
// ~90 M of Figures 2 and 8).
var tpchQueries = []tpchQuery{
	{name: "Q2", megaIns: 18, scanCPI: 1.7, scanRefs: 0.032, scanMiss: 0.12, scanWS: 5 << 20, joinFrac: 0.35, joinCPI: 2.2, joinRefs: 0.040, joinMiss: 0.20, joinWS: 8 << 20, aggregate: true},
	{name: "Q3", megaIns: 60, scanCPI: 1.9, scanRefs: 0.040, scanMiss: 0.15, scanWS: 8 << 20, joinFrac: 0.30, joinCPI: 2.4, joinRefs: 0.045, joinMiss: 0.22, joinWS: 10 << 20, aggregate: true},
	{name: "Q4", megaIns: 45, scanCPI: 1.8, scanRefs: 0.036, scanMiss: 0.14, scanWS: 7 << 20, joinFrac: 0.20, joinCPI: 2.2, joinRefs: 0.040, joinMiss: 0.18, joinWS: 8 << 20},
	{name: "Q5", megaIns: 90, scanCPI: 2.0, scanRefs: 0.042, scanMiss: 0.16, scanWS: 9 << 20, joinFrac: 0.40, joinCPI: 2.5, joinRefs: 0.050, joinMiss: 0.24, joinWS: 11 << 20, aggregate: true},
	{name: "Q6", megaIns: 30, scanCPI: 1.6, scanRefs: 0.045, scanMiss: 0.14, scanWS: 8 << 20},
	{name: "Q7", megaIns: 85, scanCPI: 2.0, scanRefs: 0.040, scanMiss: 0.16, scanWS: 9 << 20, joinFrac: 0.35, joinCPI: 2.4, joinRefs: 0.046, joinMiss: 0.22, joinWS: 10 << 20, aggregate: true},
	{name: "Q8", megaIns: 110, scanCPI: 2.1, scanRefs: 0.042, scanMiss: 0.17, scanWS: 10 << 20, joinFrac: 0.40, joinCPI: 2.5, joinRefs: 0.048, joinMiss: 0.24, joinWS: 11 << 20, aggregate: true},
	{name: "Q9", megaIns: 250, scanCPI: 2.2, scanRefs: 0.044, scanMiss: 0.18, scanWS: 11 << 20, joinFrac: 0.45, joinCPI: 2.6, joinRefs: 0.050, joinMiss: 0.25, joinWS: 12 << 20, aggregate: true},
	{name: "Q11", megaIns: 25, scanCPI: 1.7, scanRefs: 0.034, scanMiss: 0.13, scanWS: 6 << 20, joinFrac: 0.25, joinCPI: 2.1, joinRefs: 0.038, joinMiss: 0.18, joinWS: 7 << 20},
	{name: "Q12", megaIns: 55, scanCPI: 1.8, scanRefs: 0.038, scanMiss: 0.15, scanWS: 8 << 20, joinFrac: 0.20, joinCPI: 2.2, joinRefs: 0.040, joinMiss: 0.19, joinWS: 8 << 20},
	{name: "Q13", megaIns: 70, scanCPI: 2.0, scanRefs: 0.040, scanMiss: 0.16, scanWS: 9 << 20, joinFrac: 0.30, joinCPI: 2.3, joinRefs: 0.044, joinMiss: 0.21, joinWS: 9 << 20, aggregate: true},
	{name: "Q14", megaIns: 40, scanCPI: 1.7, scanRefs: 0.036, scanMiss: 0.14, scanWS: 7 << 20, joinFrac: 0.15, joinCPI: 2.1, joinRefs: 0.038, joinMiss: 0.17, joinWS: 7 << 20},
	{name: "Q15", megaIns: 50, scanCPI: 1.8, scanRefs: 0.038, scanMiss: 0.15, scanWS: 8 << 20, aggregate: true},
	{name: "Q17", megaIns: 130, scanCPI: 2.1, scanRefs: 0.042, scanMiss: 0.17, scanWS: 10 << 20, joinFrac: 0.35, joinCPI: 2.5, joinRefs: 0.046, joinMiss: 0.23, joinWS: 10 << 20},
	{name: "Q19", megaIns: 65, scanCPI: 1.9, scanRefs: 0.040, scanMiss: 0.15, scanWS: 8 << 20, joinFrac: 0.25, joinCPI: 2.3, joinRefs: 0.042, joinMiss: 0.20, joinWS: 9 << 20},
	{name: "Q20", megaIns: 88, scanCPI: 2.0, scanRefs: 0.041, scanMiss: 0.16, scanWS: 9 << 20, joinFrac: 0.30, joinCPI: 2.4, joinRefs: 0.045, joinMiss: 0.22, joinWS: 10 << 20, aggregate: true},
	{name: "Q22", megaIns: 35, scanCPI: 1.7, scanRefs: 0.034, scanMiss: 0.13, scanWS: 6 << 20, aggregate: true},
}

// Within-phase system call patterns, shared by every request.
var (
	tpchPlanCalls = []trace.Syscall{trace.SysPread, trace.SysStat}
	tpchScanCalls = []trace.Syscall{trace.SysPread, trace.SysPread, trace.SysLseek}
	tpchJoinCalls = []trace.Syscall{trace.SysPread, trace.SysRead}
	tpchAggCalls  = []trace.Syscall{trace.SysWrite}
)

// NewRequest implements App: an equal proportion of each query type.
func (t *TPCH) NewRequest(id uint64, g *sim.RNG) *Request {
	qi := g.Intn(len(tpchQueries))
	q := tpchQueries[qi]
	total := jitter(g, q.megaIns*1e6, 0.10)

	// Within-request uniformity (Figure 3): a TPCH request applies one
	// query plan to a long data sequence, so all of its stages share one
	// jittered characteristic draw, with the join only slightly hotter.
	scanAct := actFor(g, q.scanCPI, q.scanRefs, q.scanMiss, q.scanWS)
	joinAct := scanAct
	joinAct.BaseCPI *= 1.08
	joinAct.RefsPerIns = q.joinRefs * scanAct.RefsPerIns / q.scanRefs
	joinAct.SoloMissRatio = clamp01(scanAct.SoloMissRatio * q.joinMiss / q.scanMiss)
	joinAct.WorkingSetBytes = q.joinWS
	aggAct := scanAct
	aggAct.BaseCPI *= 0.95
	aggAct.WorkingSetBytes = 2 << 20
	joinIns := total * q.joinFrac
	aggIns := 0.0
	if q.aggregate {
		aggIns = total * 0.05
	}
	scanIns := total - joinIns - aggIns

	// Storage reads during scans arrive roughly every 15k instructions —
	// a system call within ~16 µs of any instant with ~83% probability, as
	// the paper measures for TPCH.
	var ph []Phase
	// Every query starts with a plan/optimizer prologue whose length is
	// characteristic of the query (metadata probes, statistics lookups):
	// it is the early-prefix structure that lets online signature
	// identification (Figure 10) recognize the query well before the long
	// scans reveal themselves.
	prologueIns := jitter(g, (0.4+0.22*float64(qi))*1e6, 0.05)
	ph = append(ph, Phase{
		Name:         "plan",
		EntrySyscall: trace.SysRead,
		Instructions: prologueIns,
		Activity:     actFor(g, 1.35, 0.008+0.0015*float64(qi%5), 0.08, 1<<20),
		SyscallGap:   40e3,
		Syscalls:     tpchPlanCalls,
	})
	// The scan splits into a query-plan-determined number of table-scan
	// stretches, keeping within-request behavior uniform.
	scanParts := 1 + qi%2
	for i := 0; i < scanParts; i++ {
		ph = append(ph, Phase{
			Name:         fmt.Sprintf("scan%d", i),
			EntrySyscall: trace.SysPread,
			Instructions: scanIns / float64(scanParts),
			Activity:     scanAct,
			SyscallGap:   6e3,
			Syscalls:     tpchScanCalls,
			BlockProb:    0.0003,
			BlockMeanNs:  float64(150 * sim.Microsecond),
		})
	}
	if joinIns > 0 {
		ph = append(ph, Phase{
			Name:         "join",
			Instructions: joinIns,
			Activity:     joinAct,
			SyscallGap:   8e3,
			Syscalls:     tpchJoinCalls,
			BlockProb:    0.0003,
			BlockMeanNs:  float64(150 * sim.Microsecond),
		})
	}
	if aggIns > 0 {
		ph = append(ph, Phase{
			Name:         "aggregate",
			Instructions: aggIns,
			Activity:     aggAct,
			SyscallGap:   60e3,
			Syscalls:     tpchAggCalls,
		})
	}

	return &Request{
		ID:        id,
		App:       t.Name(),
		Type:      q.name,
		TypeIndex: qi,
		Phases:    ph,
		RNG:       g.Fork(),
	}
}
