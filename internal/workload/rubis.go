package workload

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// RUBiS models the three-tier J2EE auction site: a front-end web server
// (tier 0), business-logic Enterprise Java Beans on JBoss (tier 1), and a
// MySQL back-end (tier 2). A request propagates across tiers through socket
// operations — exactly the inter-process context propagation the paper's
// request tracking follows — and the componentized architecture keeps
// system calls frequent (a 72% probability of one within 16 µs).
type RUBiS struct{}

// NewRUBiS returns the RUBiS workload.
func NewRUBiS() *RUBiS { return &RUBiS{} }

// Name implements App.
func (*RUBiS) Name() string { return "rubis" }

// SamplingPeriod implements App: the paper samples RUBiS once per 100 µs.
func (*RUBiS) SamplingPeriod() sim.Time { return 100 * sim.Microsecond }

// Tiers implements App: web server, EJB container, database.
func (*RUBiS) Tiers() int { return 3 }

// rubisType calibrates one interaction: how much work each tier does and
// how many EJB↔DB round trips the business logic makes.
type rubisType struct {
	name      string
	weight    float64
	webIns    float64 // servlet parse + render, split before/after
	ejbIns    float64 // per EJB stage
	dbIns     float64 // per DB query
	dbTrips   int     // EJB→DB round trips
	dbCPI     float64
	dbRefs    float64
	dbMiss    float64
	dbWS      float64
	renderIns float64
}

var rubisTypes = []rubisType{
	{"Home", 0.10, 60e3, 80e3, 100e3, 1, 1.8, 0.016, 0.10, 2 << 20, 120e3},
	{"Browse", 0.15, 70e3, 120e3, 300e3, 1, 2.0, 0.020, 0.12, 3 << 20, 180e3},
	{"SearchItemsByCategory", 0.20, 80e3, 150e3, 900e3, 1, 2.3, 0.028, 0.15, 4 << 20, 250e3},
	{"ViewItem", 0.20, 70e3, 130e3, 250e3, 2, 2.0, 0.022, 0.12, 3 << 20, 200e3},
	{"ViewUserInfo", 0.08, 60e3, 110e3, 200e3, 2, 1.9, 0.020, 0.11, 2 << 20, 150e3},
	{"PutBid", 0.12, 70e3, 140e3, 180e3, 2, 1.9, 0.018, 0.11, 2 << 20, 160e3},
	{"StoreBid", 0.08, 70e3, 160e3, 220e3, 3, 1.8, 0.018, 0.12, 2 << 20, 140e3},
	{"RegisterItem", 0.07, 80e3, 180e3, 260e3, 3, 1.8, 0.018, 0.12, 2 << 20, 150e3},
}

// RUBiS system call texture: componentized servers chatter constantly.
var rubisSyscalls = []trace.Syscall{trace.SysRead, trace.SysWrite, trace.SysSendto, trace.SysRecvfrom, trace.SysGettimeofday}

// NewRequest implements App.
func (r *RUBiS) NewRequest(id uint64, g *sim.RNG) *Request {
	weights := make([]float64, len(rubisTypes))
	for i, t := range rubisTypes {
		weights[i] = t.weight
	}
	ti := g.Pick(weights)
	t := rubisTypes[ti]

	chatter := func(p Phase) Phase {
		p.SyscallGap = 14e3
		p.Syscalls = rubisSyscalls
		return p
	}

	ph := []Phase{
		chatter(Phase{Name: "servlet-parse", Tier: 0, EntrySyscall: trace.SysRead,
			Instructions: jitter(g, t.webIns, 0.2),
			Activity:     actFor(g, 1.6, 0.012, 0.08, 1<<20)}),
	}
	for trip := 0; trip < t.dbTrips; trip++ {
		ph = append(ph,
			chatter(Phase{Name: fmt.Sprintf("ejb-dispatch%d", trip), Tier: 1,
				Instructions: jitter(g, t.ejbIns, 0.2),
				Activity:     actFor(g, 1.9, 0.018, 0.10, 2<<20)}),
			chatter(Phase{Name: fmt.Sprintf("db-query%d", trip), Tier: 2,
				Instructions: jitter(g, t.dbIns, 0.25),
				Activity:     actFor(g, t.dbCPI, t.dbRefs, t.dbMiss, t.dbWS),
				BlockProb:    0.05,
				BlockMeanNs:  float64(120 * sim.Microsecond)}),
		)
	}
	ph = append(ph,
		chatter(Phase{Name: "ejb-assemble", Tier: 1,
			Instructions: jitter(g, t.ejbIns*1.5, 0.2),
			Activity:     actFor(g, 2.0, 0.020, 0.11, 2<<20)}),
		chatter(Phase{Name: "servlet-render", Tier: 0, EntrySyscall: trace.SysRecvfrom,
			Instructions: jitter(g, t.renderIns, 0.2),
			Activity:     actFor(g, 1.7, 0.014, 0.09, 1<<20)}),
		Phase{Name: "respond", Tier: 0, EntrySyscall: trace.SysWrite,
			Instructions: jitter(g, 30e3, 0.2),
			Activity:     actFor(g, 1.5, 0.012, 0.10, 1<<20)},
	)

	return &Request{
		ID:        id,
		App:       r.Name(),
		Type:      t.name,
		TypeIndex: ti,
		Phases:    ph,
		RNG:       g.Fork(),
	}
}
