// Package serve is the always-on service mode: the paper's offline loop —
// signature identification, k-medoids bank construction, anomaly
// detection — run online over a continuous deterministic request stream.
// The engine advances a virtual clock in fixed ticks; each tick ingests
// arrivals under admission control, advances queued requests through
// sharded signature identification in parallel, and periodically recompacts
// the signature bank from a sliding window of recent traffic, recalibrating
// the anomaly threshold as the workload drifts.
//
// Everything is deterministic: results are a pure function of the Config,
// bit-identical across repeats and GOMAXPROCS settings. Parallelism only
// changes wall-clock time — each shard's work is independent, and all
// cross-shard aggregation happens serially in shard order. The steady
// state allocates nothing: queues and each shard's pattern buffer are
// preallocated, and compaction runs entirely in pooled scratch
// (distance.Matrix.Fill, cluster.Scratch).
package serve

import (
	"fmt"
	"math/bits"
	"runtime"

	"repro/internal/obs"
	"repro/internal/workload"
)

// Config specifies a serving run. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Stream is the arrival process (see workload.StreamConfig).
	Stream workload.StreamConfig

	// Shards is the number of virtual service cores (rounded up to a power
	// of two; zero means 8, and a negative value is an error). Each shard
	// has its own request queue and a per-tick processing budget of TickNs
	// virtual nanoseconds, so total virtual capacity is Shards×TickNs per
	// tick.
	Shards int
	// Workers bounds the real goroutines driving the shard phase; ≤0 means
	// runtime.GOMAXPROCS(0). Workers changes wall-clock time only, never
	// results.
	Workers int

	// TickNs is the virtual tick length (default 1ms).
	TickNs int64
	// QueueCap is each shard's queue capacity; an arrival hashing to a
	// full shard is shed (admission control).
	QueueCap int
	// DegradeDepth is the per-shard queue depth at which newly admitted
	// requests degrade to cached-signature matching: a constant-cost
	// template lookup instead of streaming identification. Degraded
	// requests cost CostDegradedNs total, which lets an overloaded shard
	// burn down its queue.
	DegradeDepth int

	// ChunkBuckets is the largest number of pattern buckets one identify
	// call consumes (amortizing per-call cost while keeping early
	// predictions timely).
	ChunkBuckets int
	// TemplatesPerApp sizes each application's behavior template library.
	TemplatesPerApp int
	// MaxPatternLen caps request patterns in buckets.
	MaxPatternLen int

	// WindowSize is the sliding window of recently completed requests that
	// feeds compaction and calibration.
	WindowSize int
	// CompactTicks is the compaction interval in ticks.
	CompactTicks int
	// BankK is the compacted signature bank size (k-medoids k).
	BankK int
	// CalibrationQuantile and CalibrationHeadroom set the anomaly
	// threshold: the quantile of the window's identification scores times
	// the headroom (see anomaly.Calibrate).
	CalibrationQuantile float64
	CalibrationHeadroom float64

	// The virtual cost model of the identify path: each identify call
	// costs CostPerCallNs plus CostPerBucketNs per bucket consumed; a
	// degraded request costs CostDegradedNs once.
	CostPerCallNs   int64
	CostPerBucketNs int64
	CostDegradedNs  int64

	// Obs, when non-nil, collects engine counters and the identify-latency
	// histogram, the one measurement that reads the host clock. Without it
	// the engine times nothing and Engine.Histogram is nil. Results are
	// identical either way.
	Obs *obs.Collector
}

// DefaultStream is the standard service-mode arrival process: 800k req/s
// across a three-app mix, two sinusoidal load periods, one 2.5× burst
// window, and a 1%/s pattern drift that forces recalibration.
func DefaultStream(seed int64) workload.StreamConfig {
	return workload.StreamConfig{
		RatePerSec: 800_000,
		Apps: []workload.StreamApp{
			{Name: "webserver", Weight: 4},
			{Name: "tpcc", Weight: 2},
			{Name: "rubis", Weight: 2},
		},
		Periods: []workload.StreamPeriod{
			{PeriodNs: 50e6, Amplitude: 0.3},
			{PeriodNs: 330e6, Amplitude: 0.25, Phase: 0.5},
		},
		Bursts:      []workload.StreamBurst{{StartNs: 100e6, DurationNs: 40e6, Factor: 2.5}},
		DriftPerSec: 0.01,
		Seed:        seed,
	}
}

// DefaultConfig returns the standard service-mode configuration over
// DefaultStream(seed).
func DefaultConfig(seed int64) Config {
	return Config{
		Stream:              DefaultStream(seed),
		Shards:              8,
		TickNs:              1e6,
		QueueCap:            1024,
		DegradeDepth:        256,
		ChunkBuckets:        32,
		TemplatesPerApp:     24,
		MaxPatternLen:       256,
		WindowSize:          512,
		CompactTicks:        100,
		BankK:               16,
		CalibrationQuantile: 0.99,
		CalibrationHeadroom: 1.5,
		CostPerCallNs:       500,
		CostPerBucketNs:     150,
		CostDegradedNs:      300,
	}
}

// normalize fills defaults and validates; returns the effective config.
func (c Config) normalize() (Config, error) {
	if err := c.Stream.Validate(); err != nil {
		return c, err
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("serve: Shards must be non-negative, got %d", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Shards&(c.Shards-1) != 0 {
		c.Shards = 1 << bits.Len(uint(c.Shards))
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.Shards {
		c.Workers = c.Shards
	}
	tk := tickKnobs{c.TickNs, c.CostDegradedNs, c.QueueCap, c.DegradeDepth, c.TemplatesPerApp, c.CompactTicks}
	if err := tk.validate("serve: "); err != nil {
		return c, err
	}
	if c.ChunkBuckets <= 0 {
		return c, fmt.Errorf("serve: ChunkBuckets must be positive, got %d", c.ChunkBuckets)
	}
	if err := c.bankKnobs().validate("serve: "); err != nil {
		return c, err
	}
	if c.CostPerCallNs < 0 {
		return c, fmt.Errorf("serve: CostPerCallNs must be non-negative, got %d", c.CostPerCallNs)
	}
	if c.CostPerBucketNs < 0 {
		return c, fmt.Errorf("serve: CostPerBucketNs must be non-negative, got %d", c.CostPerBucketNs)
	}
	if minCost := c.CostPerCallNs + int64(c.ChunkBuckets)*c.CostPerBucketNs; minCost > c.TickNs {
		return c, fmt.Errorf("serve: one identify chunk (%d virtual ns) exceeds the tick budget (%d): the queue could never drain", minCost, c.TickNs)
	}
	return c, nil
}

// bankKnobs extracts the bank maintainer's settings.
func (c Config) bankKnobs() bankKnobs {
	return bankKnobs{c.WindowSize, c.BankK, c.MaxPatternLen, c.CalibrationQuantile, c.CalibrationHeadroom}
}
