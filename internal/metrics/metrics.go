// Package metrics defines the hardware performance counter values the
// simulated machine exposes and the derived metrics the paper analyzes:
// cycles per instruction (CPI), L2 cache references per instruction, L2
// misses per reference, and L2 misses per instruction.
//
// The experimental platform in the paper (Intel Xeon 5160) provides two
// fixed counters (non-halted cycles, retired instructions) and two
// general-purpose counters configured here for L2 references and L2 misses;
// Counters mirrors exactly that register set.
package metrics

import "fmt"

// Counters is a snapshot of a core's performance counter registers.
// Values are cumulative; periods are obtained with Sub.
type Counters struct {
	Cycles       uint64
	Instructions uint64
	L2Refs       uint64
	L2Misses     uint64
}

// Add returns c with o's counts added.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Cycles:       c.Cycles + o.Cycles,
		Instructions: c.Instructions + o.Instructions,
		L2Refs:       c.L2Refs + o.L2Refs,
		L2Misses:     c.L2Misses + o.L2Misses,
	}
}

// Sub returns the per-period delta c - o. Each field saturates at zero
// rather than wrapping, which implements the paper's "do no harm" rule when
// observer-effect compensation is subtracted from a measured period.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Cycles:       satSub(c.Cycles, o.Cycles),
		Instructions: satSub(c.Instructions, o.Instructions),
		L2Refs:       satSub(c.L2Refs, o.L2Refs),
		L2Misses:     satSub(c.L2Misses, o.L2Misses),
	}
}

func satSub(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}

// IsZero reports whether all counters are zero.
func (c Counters) IsZero() bool {
	return c == Counters{}
}

func (c Counters) String() string {
	return fmt.Sprintf("cycles=%d ins=%d l2ref=%d l2miss=%d",
		c.Cycles, c.Instructions, c.L2Refs, c.L2Misses)
}

// Metric identifies a derived hardware metric.
type Metric int

const (
	// CPI is CPU cycles per retired instruction.
	CPI Metric = iota
	// L2RefsPerIns is L2 cache references per instruction; the paper uses
	// it as an indirect indication of L1 misses and of shared-resource
	// usage, and as the contention-free request signature in Section 4.4.
	L2RefsPerIns
	// L2MissRatio is L2 misses per L2 reference, the performance on the
	// shared resource.
	L2MissRatio
	// L2MissesPerIns is L2 misses per instruction; Section 5 uses it as the
	// resource usage intensity indicator for contention-easing scheduling.
	L2MissesPerIns
)

var metricNames = map[Metric]string{
	CPI:            "cycles per instruction",
	L2RefsPerIns:   "L2 references per instruction",
	L2MissRatio:    "L2 misses per reference",
	L2MissesPerIns: "L2 misses per instruction",
}

func (m Metric) String() string {
	if s, ok := metricNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// AllMetrics lists every derived metric in presentation order.
func AllMetrics() []Metric {
	return []Metric{CPI, L2RefsPerIns, L2MissRatio, L2MissesPerIns}
}

// Value computes metric m from a period's counter delta. Ratios with a zero
// denominator yield 0.
func (c Counters) Value(m Metric) float64 {
	switch m {
	case CPI:
		return ratio(c.Cycles, c.Instructions)
	case L2RefsPerIns:
		return ratio(c.L2Refs, c.Instructions)
	case L2MissRatio:
		return ratio(c.L2Misses, c.L2Refs)
	case L2MissesPerIns:
		return ratio(c.L2Misses, c.Instructions)
	default:
		panic(fmt.Sprintf("metrics: unknown metric %d", int(m)))
	}
}

// Weight returns the natural weighting length of a period for metric m,
// used by Equation 1's length-weighted statistics: instruction count for
// per-instruction metrics, L2 references for the miss ratio.
func (c Counters) Weight(m Metric) float64 {
	if m == L2MissRatio {
		return float64(c.L2Refs)
	}
	return float64(c.Instructions)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// SampleContext identifies where a counter sample was taken; the cost and
// observer effect differ between contexts (Table 1).
type SampleContext int

const (
	// CtxKernel is a sample taken while already executing in the kernel
	// (request context switch or system call entrance).
	CtxKernel SampleContext = iota
	// CtxInterrupt is a sample taken in an APIC interrupt handler, which
	// pays an additional user/kernel domain switch.
	CtxInterrupt
)

func (c SampleContext) String() string {
	switch c {
	case CtxKernel:
		return "in-kernel"
	case CtxInterrupt:
		return "interrupt"
	default:
		return fmt.Sprintf("SampleContext(%d)", int(c))
	}
}
