package workload

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TPCC models the TPC-C order-entry workload on MySQL/InnoDB: five
// transaction types — "new order" (45%), "payment" (43%), "order status"
// (4%), "delivery" (4%), and "stock level" (4%) — whose distinct processing
// gives the multi-cluster per-request CPI distribution of Figure 1.
// Transactions are compute-intensive between sparse system call bursts
// (parse at the start, log writes at commit), giving the paper's measured
// 82% probability of a system call within one millisecond.
type TPCC struct{}

// NewTPCC returns the TPC-C workload.
func NewTPCC() *TPCC { return &TPCC{} }

// Name implements App.
func (*TPCC) Name() string { return "tpcc" }

// SamplingPeriod implements App: the paper samples TPCC once per 100 µs.
func (*TPCC) SamplingPeriod() sim.Time { return 100 * sim.Microsecond }

// Tiers implements App: the client talks to one MySQL server process class.
func (*TPCC) Tiers() int { return 1 }

// tpccTypes lists the transaction mix.
var tpccTypes = []struct {
	name   string
	weight float64
}{
	{"new order", 0.45},
	{"payment", 0.43},
	{"order status", 0.04},
	{"delivery", 0.04},
	{"stock level", 0.04},
}

// TPCC working sets: InnoDB buffer pool regions touched per transaction.
const (
	tpccIndexWS = 3 << 20
	tpccRowWS   = 2 << 20
	tpccLogWS   = 256 << 10
	tpccScanWS  = 4 << 20
)

// Within-phase system call patterns, shared by every request.
var (
	tpccLogCalls = []trace.Syscall{trace.SysWrite, trace.SysFsync}
)

// NewRequest implements App.
func (t *TPCC) NewRequest(id uint64, g *sim.RNG) *Request {
	weights := make([]float64, len(tpccTypes))
	for i, tt := range tpccTypes {
		weights[i] = tt.weight
	}
	ti := g.Pick(weights)

	var ph []Phase
	parse := func(ins float64) Phase {
		return Phase{Name: "parse", EntrySyscall: trace.SysRead,
			Instructions: jitter(g, ins, 0.15),
			Activity:     actFor(g, 1.1, 0.006, 0.08, tpccLogWS)}
	}
	logCommit := func(ins float64) Phase {
		return Phase{Name: "log-commit", EntrySyscall: trace.SysWrite,
			Instructions: jitter(g, ins, 0.15),
			Activity:     actFor(g, 1.0, 0.008, 0.10, tpccLogWS),
			SyscallGap:   15e3,
			Syscalls:     tpccLogCalls,
			BlockProb:    0.25,
			BlockMeanNs:  float64(200 * sim.Microsecond)}
	}

	switch tpccTypes[ti].name {
	case "new order":
		ph = append(ph, parse(60e3))
		items := 8 + g.Intn(5) // order lines
		for i := 0; i < items; i++ {
			ph = append(ph, Phase{
				Name:         fmt.Sprintf("item-lookup%d", i),
				Instructions: jitter(g, 50e3, 0.2),
				Activity:     actFor(g, 2.6, 0.024, 0.13, tpccIndexWS),
			})
		}
		ph = append(ph,
			Phase{Name: "stock-update", Instructions: jitter(g, 300e3, 0.15),
				Activity: actFor(g, 1.8, 0.015, 0.10, tpccRowWS)},
			Phase{Name: "insert-order", Instructions: jitter(g, 200e3, 0.15),
				Activity: actFor(g, 1.3, 0.010, 0.10, tpccRowWS)},
			logCommit(80e3))
	case "payment":
		ph = append(ph, parse(50e3),
			Phase{Name: "account-lookup", Instructions: jitter(g, 150e3, 0.2),
				Activity: actFor(g, 1.9, 0.018, 0.10, tpccIndexWS)},
			Phase{Name: "balance-update", Instructions: jitter(g, 250e3, 0.15),
				Activity: actFor(g, 1.5, 0.012, 0.10, tpccRowWS)},
			logCommit(60e3))
	case "order status":
		ph = append(ph, parse(40e3),
			Phase{Name: "order-scan", Instructions: jitter(g, 1.5e6, 0.2),
				Activity: actFor(g, 2.5, 0.028, 0.15, tpccScanWS)},
			Phase{Name: "result-send", EntrySyscall: trace.SysWrite,
				Instructions: jitter(g, 40e3, 0.2),
				Activity:     actFor(g, 1.4, 0.010, 0.08, tpccLogWS)})
	case "delivery":
		ph = append(ph, parse(50e3))
		for d := 0; d < 10; d++ { // ten districts per delivery batch
			ph = append(ph,
				Phase{Name: fmt.Sprintf("district-lookup%d", d),
					Instructions: jitter(g, 80e3, 0.2),
					Activity:     actFor(g, 2.1, 0.020, 0.12, tpccIndexWS)},
				Phase{Name: fmt.Sprintf("district-update%d", d),
					Instructions: jitter(g, 120e3, 0.15),
					Activity:     actFor(g, 1.7, 0.014, 0.10, tpccRowWS)})
		}
		ph = append(ph, logCommit(100e3))
	case "stock level":
		ph = append(ph, parse(40e3),
			Phase{Name: "join-scan", Instructions: jitter(g, 3e6, 0.2),
				Activity: actFor(g, 2.9, 0.035, 0.20, tpccScanWS)},
			Phase{Name: "result-send", EntrySyscall: trace.SysWrite,
				Instructions: jitter(g, 30e3, 0.2),
				Activity:     actFor(g, 1.4, 0.010, 0.08, tpccLogWS)})
	}

	return &Request{
		ID:        id,
		App:       t.Name(),
		Type:      tpccTypes[ti].name,
		TypeIndex: ti,
		Phases:    ph,
		RNG:       g.Fork(),
	}
}
