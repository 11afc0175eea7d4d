// Package cache models the shared on-chip L2 caches and the memory
// bandwidth of the simulated multicore machine.
//
// The paper's platform has two dual-core packages, each pair of cores
// sharing one 4 MB 16-way L2 cache (64-byte lines, 14-cycle latency), with a
// memory bus shared machine-wide. Inter-core sharing of these resources is
// what "obfuscates" request performance in the paper (Figure 1): co-running
// requests inflate each other's L2 miss ratios (capacity contention) and
// memory latency (bandwidth contention).
//
// Rather than simulating individual cache lines — which the paper's analyses
// never observe — the model is analytic: each core's running activity places
// a demand (working set × reference intensity) on its package's cache, the
// cache capacity is divided proportionally to demand, and a core whose share
// falls below its working set suffers a miss-ratio inflation. Total miss
// traffic above a knee inflates the effective memory penalty for everyone.
// This preserves exactly the behavior the paper's experiments key on:
// solo executions show each activity's inherent miss ratio, and co-running
// intensity monotonically degrades CPI, more for large-working-set
// memory-intensive activities (TPCH) and hardly at all for small-footprint
// compute-bound ones (WeBWorK).
package cache

import "math"

// Config describes one shared L2 cache and the machine's memory system.
type Config struct {
	// CapacityBytes is the shared L2 capacity per package (4 MB on the
	// paper's Xeon 5160).
	CapacityBytes float64
	// LineBytes is the cache line size (64 B).
	LineBytes float64
	// HitLatency is the L2 hit latency in cycles (14 on Woodcrest).
	HitLatency float64
	// MissPenalty is the baseline memory access penalty in cycles.
	MissPenalty float64
	// HitOverlap is the fraction of hit latency exposed in CPI after
	// out-of-order overlap.
	HitOverlap float64
	// MissOverlap is the fraction of miss penalty exposed in CPI.
	MissOverlap float64
	// StressScale converts capacity stress (the fraction of a working set
	// that does not fit in the core's cache share) into miss-ratio
	// inflation.
	StressScale float64
	// StressExponent shapes how quickly stress grows as share shrinks.
	StressExponent float64
	// BandwidthKnee is the machine-wide L2 miss traffic (misses per
	// instruction summed over running cores) above which the memory bus
	// saturates.
	BandwidthKnee float64
	// BandwidthSlope is the relative miss-penalty inflation per unit of
	// traffic above the knee, normalized by the knee.
	BandwidthSlope float64
}

// DefaultConfig returns parameters calibrated against the paper's Xeon 5160
// "Woodcrest" platform.
func DefaultConfig() Config {
	return Config{
		CapacityBytes:  4 << 20,
		LineBytes:      64,
		HitLatency:     14,
		MissPenalty:    250,
		HitOverlap:     0.35,
		MissOverlap:    0.70,
		StressScale:    0.42,
		StressExponent: 1.0,
		BandwidthKnee:  0.013,
		BandwidthSlope: 0.16,
	}
}

// Demand is one core's current load on its package's shared cache.
type Demand struct {
	// RefsPerIns is the activity's L2 references per instruction.
	RefsPerIns float64
	// SoloMissRatio is the L2 miss ratio the activity exhibits running
	// alone with the full cache.
	SoloMissRatio float64
	// WorkingSetBytes is the activity's working set size.
	WorkingSetBytes float64
}

// weight is the demand's claim on cache capacity: how much data it touches,
// scaled by how hard it touches it. A core with a big but cold footprint
// claims less than one streaming through the same footprint.
func (d Demand) weight(cfg Config) float64 {
	intensity := math.Sqrt(d.RefsPerIns) // diminishing returns on intensity
	return d.WorkingSetBytes * (0.25 + intensity)
}

// MissRatiosInto writes into out the effective miss ratio for each demand
// when all of them co-run on one package sharing a cfg-shaped cache. out
// is caller-provided because the hot paths (the machine re-derives rates
// on every activity change) must not allocate; it must have len(demands)
// entries. nil entries in demands denote idle cores and produce 0.
func MissRatiosInto(cfg Config, demands []*Demand, out []float64) {
	var totalWeight, totalWS float64
	for _, d := range demands {
		if d == nil {
			continue
		}
		totalWeight += d.weight(cfg)
		totalWS += d.WorkingSetBytes
	}
	for i, d := range demands {
		if d == nil {
			out[i] = 0
			continue
		}
		out[i] = effectiveMiss(cfg, d, totalWeight, totalWS)
	}
}

func effectiveMiss(cfg Config, d *Demand, totalWeight, totalWS float64) float64 {
	m := d.SoloMissRatio
	if totalWS <= cfg.CapacityBytes || d.WorkingSetBytes <= 0 {
		// Everything fits: no capacity contention.
		return clampRatio(m)
	}
	share := cfg.CapacityBytes
	if totalWeight > 0 {
		share = cfg.CapacityBytes * d.weight(cfg) / totalWeight
	}
	// The solo miss ratio already reflects the part of the working set that
	// does not fit in the full cache; stress measures the additional
	// shortfall relative to what the activity could use solo.
	soloFit := math.Min(d.WorkingSetBytes, cfg.CapacityBytes)
	if share >= soloFit {
		return clampRatio(m)
	}
	stress := math.Pow(1-share/soloFit, cfg.StressExponent)
	return clampRatio(m + (1-m)*cfg.StressScale*stress)
}

func clampRatio(m float64) float64 {
	if m < 0 {
		return 0
	}
	if m > 1 {
		return 1
	}
	return m
}

// PenaltyFactor returns the machine-wide miss-penalty inflation given the
// total miss traffic (sum over running cores of refs/ins × effective miss
// ratio).
func PenaltyFactor(cfg Config, totalMissPerIns float64) float64 {
	if cfg.BandwidthKnee <= 0 || totalMissPerIns <= cfg.BandwidthKnee {
		return 1
	}
	return 1 + cfg.BandwidthSlope*(totalMissPerIns-cfg.BandwidthKnee)/cfg.BandwidthKnee
}

// CPI computes the cycles-per-instruction an activity achieves given its
// base (cache-independent) CPI, its L2 reference rate, its effective miss
// ratio, and the current penalty factor.
func CPI(cfg Config, baseCPI, refsPerIns, missRatio, penaltyFactor float64) float64 {
	hit := refsPerIns * (1 - missRatio) * cfg.HitLatency * cfg.HitOverlap
	miss := refsPerIns * missRatio * cfg.MissPenalty * cfg.MissOverlap * penaltyFactor
	return baseCPI + hit + miss
}

// PollutionCost estimates the cycles lost re-warming the cache after a
// context switch brings in an activity with the given working set: the
// lines it must refill, each paying the (current) miss penalty. The paper
// measured worst-case pollution above 12 ms; frequent re-scheduling must be
// charged for this (Section 5.2).
func PollutionCost(cfg Config, workingSetBytes, penaltyFactor float64) (cycles, refs, misses float64) {
	lines := math.Min(workingSetBytes, cfg.CapacityBytes) / cfg.LineBytes
	// Only a small fraction of the working set is both evicted while
	// descheduled and needed again promptly, and refills overlap with
	// execution; the paper's 12 ms figure is an adversarial microbenchmark
	// bound, not the common case.
	const refillFraction = 0.02
	refills := lines * refillFraction
	return refills * cfg.MissPenalty * cfg.MissOverlap * penaltyFactor, refills, refills
}
