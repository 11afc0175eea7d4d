package serve

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/workload"
)

// testConfig is a small, fast run that still exercises every path:
// periodic load, a burst strong enough to cross the degrade depth, drift,
// and several compactions.
func testConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Stream.Bursts[0] = workload.StreamBurst{StartNs: 12e6, DurationNs: 10e6, Factor: 3}
	cfg.WindowSize = 256
	cfg.CompactTicks = 10
	return cfg
}

func run(t *testing.T, cfg Config, n int) Result {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Process(n)
	e.Drain()
	return e.Result()
}

func TestEngineBasicInvariants(t *testing.T) {
	r := run(t, testConfig(1), 60_000)
	if r.Arrivals < 60_000 {
		t.Fatalf("ingested %d arrivals, want ≥ 60000", r.Arrivals)
	}
	if r.Completed+r.Shed != r.Arrivals || r.Queued != 0 {
		t.Fatalf("accounting broken: arrivals=%d completed=%d shed=%d queued=%d",
			r.Arrivals, r.Completed, r.Shed, r.Queued)
	}
	if r.Compactions == 0 || r.Recalibrations < r.Compactions {
		t.Fatalf("compaction never ran: %+v", r)
	}
	if math.IsInf(r.Threshold, 1) {
		t.Fatal("threshold never calibrated")
	}
	if r.Degraded == 0 {
		t.Fatal("burst never crossed the degrade depth")
	}
	if r.EarlyPredictions != r.Completed {
		t.Fatalf("every completion should carry an early prediction: %d vs %d",
			r.EarlyPredictions, r.Completed)
	}
	if r.Injected == 0 || r.Flagged == 0 || r.FlaggedInjected == 0 {
		t.Fatalf("anomaly pipeline inert: injected=%d flagged=%d hits=%d",
			r.Injected, r.Flagged, r.FlaggedInjected)
	}
	// Detection should beat chance: injected requests are ~0.4% of
	// traffic but should be a far larger share of flags.
	if hitRate := float64(r.FlaggedInjected) / float64(r.Flagged); hitRate < 0.05 {
		t.Fatalf("flagging indistinguishable from noise: hit rate %.3f", hitRate)
	}
}

// TestEngineDeterministic: identical configs must produce bit-identical
// results regardless of worker count or process-call batching.
func TestEngineDeterministic(t *testing.T) {
	base := run(t, testConfig(7), 40_000)
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig(7)
		cfg.Workers = workers
		if got := run(t, cfg, 40_000); !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d diverges:\n got %+v\nwant %+v", workers, got, base)
		}
	}
	// Two engines driven by the same Process-call sequence must agree
	// (Process granularity is whole ticks, so different batchings of the
	// same total are different — but equal batchings are bit-identical).
	runSplit := func(workers int) Result {
		cfg := testConfig(7)
		cfg.Workers = workers
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < 4; i++ {
			e.Process(10_000)
		}
		e.Drain()
		return e.Result()
	}
	if a, b := runSplit(1), runSplit(4); !reflect.DeepEqual(a, b) {
		t.Fatalf("split processing diverges across workers:\n got %+v\nwant %+v", a, b)
	}
}

func TestEngineSeedSensitivity(t *testing.T) {
	a := run(t, testConfig(1), 30_000)
	b := run(t, testConfig(2), 30_000)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical results")
	}
}

// TestEngineOverdrive is the backpressure soak: a stream far beyond
// virtual capacity must shed deterministically, keep every queue bounded,
// and still drain — under any worker count (run with -race in CI).
func TestEngineOverdrive(t *testing.T) {
	overdriven := func(workers int) Config {
		cfg := testConfig(3)
		cfg.Stream.RatePerSec = 6_000_000
		cfg.Stream.Bursts = nil
		cfg.QueueCap = 512
		cfg.DegradeDepth = 128
		cfg.Workers = workers
		return cfg
	}
	base := run(t, overdriven(0), 120_000)
	if base.Shed == 0 {
		t.Fatalf("overdriven stream never shed: %+v", base)
	}
	if base.Degraded == 0 || base.CompletedDegraded == 0 {
		t.Fatalf("overdriven stream never degraded: %+v", base)
	}
	if base.MaxShardDepth > 512 {
		t.Fatalf("queue depth %d exceeds cap 512", base.MaxShardDepth)
	}
	if base.Completed+base.Shed != base.Arrivals || base.Queued != 0 {
		t.Fatalf("overdrive accounting broken: %+v", base)
	}
	for _, workers := range []int{1, 4} {
		if got := run(t, overdriven(workers), 120_000); !reflect.DeepEqual(got, base) {
			t.Fatalf("overdrive workers=%d diverges:\n got %+v\nwant %+v", workers, got, base)
		}
	}
}

// TestEngineSteadyStateAllocs: once warmed past the first compactions,
// processing allocates nothing — the headline property of the service
// mode. The second leg overloads the shards with two-bucket chunks, so
// queue heads stay mid-identification across ticks and compactions.
func TestEngineSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation steady state needs a long warmup")
	}
	base := testConfig(5)
	legs := []struct {
		chunk int
		rate  float64
	}{
		{base.ChunkBuckets, base.Stream.RatePerSec},
		{2, 3_000_000},
	}
	for _, leg := range legs {
		cfg := testConfig(5)
		cfg.ChunkBuckets = leg.chunk
		cfg.Stream.RatePerSec = leg.rate
		cfg.Workers = 1 // AllocsPerRun must see every allocation on one goroutine
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Process(120_000) // warm: pools grown, several compactions done
		var midHeads int
		allocs := testing.AllocsPerRun(5, func() {
			for tick := 0; tick < 2*cfg.CompactTicks; tick++ {
				e.runTick(true)
				for s := range e.shards {
					if q := e.shards[s].q; len(q) > 0 && q[0].pos > 0 && q[0].pos < q[0].patLen {
						midHeads++
					}
				}
			}
		})
		e.Close()
		if allocs != 0 {
			t.Fatalf("ChunkBuckets=%d: steady-state ticks allocate %v per %d ticks, want 0", leg.chunk, allocs, 2*cfg.CompactTicks)
		}
		if leg.chunk == 2 && midHeads == 0 {
			t.Fatal("two-bucket leg never left a head mid-identification")
		}
	}
}

// TestEngineOnlyQueueHeadMidIdentification: a shard stops at the first
// request its budget cannot finish, so after every tick at most one
// request per shard has consumed part of its pattern, and it is the queue
// head. Queue compaction and FIFO order rest on this.
func TestEngineOnlyQueueHeadMidIdentification(t *testing.T) {
	cfg := testConfig(9)
	cfg.Stream.RatePerSec = 3_000_000
	// Template patterns are shorter than the default chunk; two-bucket
	// chunks make most requests span several identify calls, so budgets
	// run out mid-request.
	cfg.ChunkBuckets = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var midHeads int
	for tick := 0; tick < 200; tick++ {
		e.runTick(true)
		for s := range e.shards {
			for i, r := range e.shards[s].q {
				if r.pos == 0 || r.pos == r.patLen {
					continue
				}
				if i != 0 {
					t.Fatalf("tick %d shard %d: request %d of %d is mid-identification (pos %d/%d)",
						tick, s, i, len(e.shards[s].q), r.pos, r.patLen)
				}
				midHeads++
			}
		}
	}
	if degraded := e.Result().Degraded; midHeads == 0 || degraded == 0 {
		t.Fatalf("test never loaded the shards: %d mid-identification heads, %d degraded", midHeads, degraded)
	}
}

// TestEngineTimesIdentifyOnlyWithCollector: the identify-latency histogram,
// the engine's one host-clock reading, exists only with a collector
// attached. Attaching one changes no result, and the number of timed
// identify calls is virtual, so two attached runs agree on it.
func TestEngineTimesIdentifyOnlyWithCollector(t *testing.T) {
	runWith := func(col *obs.Collector) (Result, *obs.Histogram) {
		cfg := testConfig(4)
		cfg.Obs = col
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Process(30_000)
		e.Drain()
		return e.Result(), e.Histogram()
	}
	plain, h := runWith(nil)
	if h != nil || h.Count() != 0 {
		t.Fatalf("detached engine has an identify histogram with %d calls", h.Count())
	}
	traced, th := runWith(obs.New("test"))
	if !reflect.DeepEqual(traced, plain) {
		t.Fatalf("attaching a collector changed the result:\n got %+v\nwant %+v", traced, plain)
	}
	if th.Count() == 0 {
		t.Fatal("attached engine timed no identify call")
	}
	if _, th2 := runWith(obs.New("test")); th2.Count() != th.Count() {
		t.Fatalf("timed identify calls differ across attached runs: %d vs %d", th2.Count(), th.Count())
	}
}

// TestEngineHonorsCohorts: the engine resolves arrivals through the same
// intake as the fleet, so stream cohorts fan out its drift too. One seed
// run with and without four cohorts must give different results.
func TestEngineHonorsCohorts(t *testing.T) {
	plain := testConfig(6)
	plain.Stream.DriftPerSec = 1
	cohorts := plain
	cohorts.Stream.Cohorts, cohorts.Stream.CohortSpread = 4, 0.75
	if a, b := run(t, plain, 30_000), run(t, cohorts, 30_000); reflect.DeepEqual(a, b) {
		t.Fatalf("four cohorts left the result unchanged: %+v", a)
	}
}

// TestQueueEntrySizes: queued requests are moved by value through every
// queue, so embedding reqRec must not grow them past their hand-packed
// sizes on a 64-bit platform.
func TestQueueEntrySizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(req{}); got > 48 {
		t.Errorf("req is %d bytes, want at most 48", got)
	}
	if got := unsafe.Sizeof(fleetReq{}); got > 56 {
		t.Errorf("fleetReq is %d bytes, want at most 56", got)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		mut  func(*Config)
		want string
	}{
		{func(c *Config) { c.Stream.RatePerSec = 0 }, "stream rate"},
		{func(c *Config) { c.Shards = -1 }, "serve: Shards"},
		{func(c *Config) { c.TickNs = 0 }, "serve: TickNs"},
		{func(c *Config) { c.QueueCap = -1 }, "serve: QueueCap"},
		{func(c *Config) { c.DegradeDepth = 0 }, "serve: DegradeDepth"},
		{func(c *Config) { c.DegradeDepth = c.QueueCap + 1 }, "serve: DegradeDepth"},
		{func(c *Config) { c.ChunkBuckets = 0 }, "serve: ChunkBuckets"},
		{func(c *Config) { c.TemplatesPerApp = 0 }, "serve: TemplatesPerApp"},
		{func(c *Config) { c.MaxPatternLen = 0 }, "serve: MaxPatternLen"},
		{func(c *Config) { c.WindowSize = 1 }, "serve: WindowSize"},
		{func(c *Config) { c.CompactTicks = 0 }, "serve: CompactTicks"},
		{func(c *Config) { c.BankK = 0 }, "serve: BankK"},
		{func(c *Config) { c.CalibrationQuantile = 1.5 }, "serve: CalibrationQuantile"},
		{func(c *Config) { c.CalibrationHeadroom = 0 }, "serve: CalibrationHeadroom"},
		{func(c *Config) { c.CostPerCallNs = -1 }, "serve: CostPerCallNs"},
		{func(c *Config) { c.CostPerBucketNs = -1 }, "serve: CostPerBucketNs"},
		{func(c *Config) { c.CostDegradedNs = 0 }, "serve: CostDegradedNs"},
		{func(c *Config) { c.CostDegradedNs = 2 * c.TickNs }, "serve: CostDegradedNs"},
		{func(c *Config) { c.CostPerBucketNs = c.TickNs }, "tick budget"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(1)
		tc.mut(&cfg)
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("want error naming %s, got %v", tc.want, err)
		}
	}
	cfg := DefaultConfig(1)
	cfg.Shards = 0
	if got, err := cfg.normalize(); err != nil || got.Shards != 8 {
		t.Fatalf("zero Shards: got %d, %v; want the default 8", got.Shards, err)
	}
}

// TestEngineMultiChunkResultPinned pins the full Result of a run whose
// requests span several identify chunks while banks swap under them: two-
// bucket chunks and a 7-tick compaction period leave heads
// mid-identification across compactions, so their half-point and
// completion scans read a bank other than the one their first chunk saw.
// The expected value was recorded from the per-chunk incremental session
// that this path replaced; equality here is bit-for-bit (ScoreSum and
// Threshold included).
func TestEngineMultiChunkResultPinned(t *testing.T) {
	cfg := testConfig(9)
	cfg.Stream.RatePerSec = 3_000_000
	cfg.ChunkBuckets = 2
	cfg.CompactTicks = 7
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var swappedMid int
	for tick := 0; tick < 300; tick++ {
		compactions := e.bm.compactions
		e.runTick(true)
		if e.bm.compactions == compactions {
			continue
		}
		for s := range e.shards {
			if q := e.shards[s].q; len(q) > 0 && q[0].pos > 0 && q[0].pos < q[0].patLen {
				swappedMid++
			}
		}
	}
	e.Drain()
	if swappedMid == 0 {
		t.Fatal("no bank swap landed under a mid-identification head")
	}
	want := Result{
		Arrivals: 963397, Shed: 53946, Degraded: 486122,
		Completed: 909451, CompletedDegraded: 486122,
		EarlyPredictions: 909451, EarlyWrong: 22954,
		Injected: 3603, Flagged: 3411, FlaggedInjected: 991,
		ScoreSum:    1718.3921890353306,
		Compactions: 43, Recalibrations: 43,
		Ticks: 301, VirtualNs: 301000000,
		MaxShardDepth: 1024, Queued: 0,
		BankEntries: 16, Threshold: 0.005468565891084055, WindowFill: 256,
	}
	if got := e.Result(); !reflect.DeepEqual(got, want) {
		t.Fatalf("multi-chunk result moved (%d mid-identification swaps):\n got %+v\nwant %+v", swappedMid, got, want)
	}
}
