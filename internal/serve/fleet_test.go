package serve

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// smallFleetConfig is a scaled-down fleet run that still exercises
// compaction, merging, and both anomaly paths quickly.
func smallFleetConfig(seed int64) FleetConfig {
	cfg := DefaultFleetConfig(seed)
	cfg.WindowSize = 128
	cfg.CompactTicks = 50
	cfg.MergeEvery = 2
	return cfg
}

func runFleet(t *testing.T, cfg FleetConfig, n int) FleetResult {
	t.Helper()
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Process(n)
	f.Drain()
	return f.Result()
}

// TestFleetIgnoresWorkers: the fleet runs its tick on the calling
// goroutine, so Workers changes nothing — the full result (counts, CPI
// sums, quantiles, per-node bank state) is identical at 1 and 4 workers,
// and building and running a fleet starts no goroutine.
func TestFleetIgnoresWorkers(t *testing.T) {
	serial := smallFleetConfig(11)
	serial.Workers = 1
	a := runFleet(t, serial, 30_000)
	if a.Completed == 0 {
		t.Fatal("fleet completed nothing")
	}

	cfg := smallFleetConfig(11)
	cfg.Workers = 4
	before := runtime.NumGoroutine()
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Process(30_000)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("Workers=4 fleet started goroutines: %d before, %d after", before, after)
	}
	f.Drain()
	if b := f.Result(); !reflect.DeepEqual(a, b) {
		t.Fatalf("fleet result differs between workers=1 and workers=4:\n%v\nvs\n%v", a, b)
	}
}

// TestFleetRunToRunDeterminism: identical configs reproduce identical
// results across fresh fleets.
func TestFleetRunToRunDeterminism(t *testing.T) {
	a := runFleet(t, smallFleetConfig(3), 20_000)
	b := runFleet(t, smallFleetConfig(3), 20_000)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fleet run not reproducible:\n%v\nvs\n%v", a, b)
	}
}

// TestFleetLifecycle checks the pipeline end to end on both policies:
// requests flow, nodes compact, banks merge and converge to BankK entries,
// anomalies are injected and some flagged, latency quantiles populate.
func TestFleetLifecycle(t *testing.T) {
	for _, pol := range []FleetPolicy{FleetRoundRobin, FleetContentionEase} {
		cfg := smallFleetConfig(7)
		cfg.Policy = pol
		res := runFleet(t, cfg, 40_000)
		if res.Policy != pol.String() {
			t.Fatalf("policy label %q", res.Policy)
		}
		if res.Arrivals < 40_000 {
			t.Fatalf("%v: ingested %d arrivals", pol, res.Arrivals)
		}
		if res.Completed+res.Shed != res.Arrivals || res.Queued != 0 {
			t.Fatalf("%v: accounting broken: %d completed + %d shed != %d arrivals (queued %d)",
				pol, res.Completed, res.Shed, res.Arrivals, res.Queued)
		}
		if res.Completed < res.Arrivals*9/10 {
			t.Fatalf("%v: shed too much: completed %d of %d", pol, res.Completed, res.Arrivals)
		}
		if res.CPI <= 0 || res.P99Ns <= 0 {
			t.Fatalf("%v: degenerate fleet metrics: CPI %v p99 %v", pol, res.CPI, res.P99Ns)
		}
		if res.Injected == 0 || res.Flagged == 0 {
			t.Fatalf("%v: anomaly path dead: injected %d flagged %d", pol, res.Injected, res.Flagged)
		}
		if res.CompactionRounds == 0 || res.Merges == 0 {
			t.Fatalf("%v: banks never compacted/merged: %d/%d", pol, res.CompactionRounds, res.Merges)
		}
		if len(res.Nodes) != 3 {
			t.Fatalf("%v: %d node results", pol, len(res.Nodes))
		}
		var total uint64
		for _, n := range res.Nodes {
			total += n.Completed
			if n.Completed == 0 {
				t.Fatalf("%v: node %d starved", pol, n.Node)
			}
			if n.CPI <= 0 || n.P99Ns <= 0 {
				t.Fatalf("%v: node %d degenerate metrics", pol, n.Node)
			}
			if n.BankEntries != cfg.BankK {
				t.Fatalf("%v: node %d bank has %d entries, want %d", pol, n.Node, n.BankEntries, cfg.BankK)
			}
		}
		if total != res.Completed {
			t.Fatalf("%v: node completions %d != fleet %d", pol, total, res.Completed)
		}
		var shed, deg uint64
		for _, n := range res.Nodes {
			shed += n.Shed
			deg += n.Degraded
		}
		if shed != res.Shed || deg != res.Degraded {
			t.Fatalf("%v: per-node shed/degraded %d/%d != fleet %d/%d",
				pol, shed, deg, res.Shed, res.Degraded)
		}
	}
}

// TestFleetDegradedTier: with a shallow degrade depth the loaded fleet
// serves part of the stream from the cached-template tier. Degraded
// requests still complete — they are drained at constant cost, never
// dropped — so the arrival accounting is unchanged.
func TestFleetDegradedTier(t *testing.T) {
	cfg := smallFleetConfig(13)
	cfg.DegradeDepth = 2
	res := runFleet(t, cfg, 40_000)
	if res.Degraded == 0 {
		t.Fatal("no requests degraded at DegradeDepth=2")
	}
	if res.Completed+res.Shed != res.Arrivals || res.Queued != 0 {
		t.Fatalf("degraded accounting broken: %+v", res)
	}
	deep := smallFleetConfig(13) // same stream, default (deep) degrade depth
	if ref := runFleet(t, deep, 40_000); res.Degraded <= ref.Degraded {
		t.Fatalf("shallower depth degraded %d, deeper %d", res.Degraded, ref.Degraded)
	}
}

// TestFleetCohortThresholds: admission thresholds are per-cohort. After
// the banks merge, the cohorts' drift spread pulls their window medians
// apart, so the refreshed thresholds must not collapse to one fleet-wide
// value.
func TestFleetCohortThresholds(t *testing.T) {
	cfg := smallFleetConfig(17)
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Process(60_000)
	f.Drain()
	res := f.Result()
	if res.Merges == 0 {
		t.Fatal("fleet never merged")
	}
	if len(f.fleetThresholds) != cfg.Stream.Cohorts {
		t.Fatalf("%d thresholds for %d cohorts", len(f.fleetThresholds), cfg.Stream.Cohorts)
	}
	varied := false
	for _, th := range f.fleetThresholds[1:] {
		if th != f.fleetThresholds[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatalf("cohort thresholds identical after %d merges: %v", res.Merges, f.fleetThresholds)
	}
}

// TestFleetContentionEasingHelps: on the heterogeneous fleet the
// contention-easing policy must not do worse than round-robin on fleet CPI
// (the paper's Section 5.2 claim, scaled up).
func TestFleetContentionEasingHelps(t *testing.T) {
	rr := smallFleetConfig(5)
	rr.Policy = FleetRoundRobin
	ce := smallFleetConfig(5)
	ce.Policy = FleetContentionEase
	a := runFleet(t, rr, 60_000)
	b := runFleet(t, ce, 60_000)
	if b.CPI > a.CPI*1.02 {
		t.Fatalf("contention easing should not hurt fleet CPI: RR %.4f vs CE %.4f", a.CPI, b.CPI)
	}
}

// TestFleetSteadyStateAllocs: after warmup, the per-request allocation
// cost must stay bounded — the fleet must be able to absorb millions of
// requests with stable memory.
func TestFleetSteadyStateAllocs(t *testing.T) {
	cfg := smallFleetConfig(9)
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Process(40_000) // warm: windows filled, banks compacted and merged

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const n = 40_000
	f.Process(n)
	runtime.ReadMemStats(&after)
	perReq := float64(after.Mallocs-before.Mallocs) / n
	if perReq > 0.05 {
		t.Fatalf("steady state allocates %.3f objects/request, want ~0", perReq)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	cases := []struct {
		mut  func(*FleetConfig)
		want string
	}{
		{func(c *FleetConfig) { c.Nodes = nil }, "FleetConfig.Nodes"},
		{func(c *FleetConfig) { c.Nodes[1].Packages[0].Cores = 0 }, "FleetConfig.Nodes[1]"},
		{func(c *FleetConfig) { c.Policy = FleetPolicy(9) }, "FleetConfig.Policy"},
		{func(c *FleetConfig) { c.TickNs = 0 }, "FleetConfig.TickNs"},
		{func(c *FleetConfig) { c.QueueCap = -1 }, "FleetConfig.QueueCap"},
		{func(c *FleetConfig) { c.DegradeDepth = 0 }, "FleetConfig.DegradeDepth"},
		{func(c *FleetConfig) { c.DegradeDepth = c.QueueCap + 1 }, "FleetConfig.DegradeDepth"},
		{func(c *FleetConfig) { c.CostDegradedNs = 0 }, "FleetConfig.CostDegradedNs"},
		{func(c *FleetConfig) { c.CostDegradedNs = 2 * c.TickNs }, "FleetConfig.CostDegradedNs"},
		{func(c *FleetConfig) { c.TemplatesPerApp = 0 }, "FleetConfig.TemplatesPerApp"},
		{func(c *FleetConfig) { c.MaxPatternLen = 0 }, "FleetConfig.MaxPatternLen"},
		{func(c *FleetConfig) { c.WindowSize = 1 }, "FleetConfig.WindowSize"},
		{func(c *FleetConfig) { c.CompactTicks = 0 }, "FleetConfig.CompactTicks"},
		{func(c *FleetConfig) { c.BankK = 0 }, "FleetConfig.BankK"},
		{func(c *FleetConfig) { c.MergeEvery = -1 }, "FleetConfig.MergeEvery"},
		{func(c *FleetConfig) { c.CalibrationQuantile = 1.5 }, "FleetConfig.CalibrationQuantile"},
		{func(c *FleetConfig) { c.CalibrationHeadroom = 0 }, "FleetConfig.CalibrationHeadroom"},
		{func(c *FleetConfig) { c.ScaleHighWater = math.NaN() }, "FleetConfig.ScaleHighWater"},
		{func(c *FleetConfig) { c.ScaleHighWater = math.Inf(1) }, "FleetConfig.ScaleHighWater"},
		{func(c *FleetConfig) { c.ScaleHighWater = math.Inf(-1) }, "FleetConfig.ScaleHighWater"},
		{func(c *FleetConfig) { c.ScaleLowWater = math.NaN() }, "FleetConfig.ScaleLowWater"},
		{func(c *FleetConfig) { c.ScaleLowWater = math.Inf(1) }, "FleetConfig.ScaleLowWater"},
		{func(c *FleetConfig) { c.ScaleLowWater = math.Inf(-1) }, "FleetConfig.ScaleLowWater"},
		{func(c *FleetConfig) { c.ScaleHighWater = -1 }, "FleetConfig.ScaleHighWater"},
		{func(c *FleetConfig) { c.ScaleLowWater = -0.5 }, "FleetConfig.ScaleLowWater"},
		{func(c *FleetConfig) { c.ScaleCooldownTicks = -1 }, "FleetConfig.ScaleCooldownTicks"},
		{func(c *FleetConfig) { c.ScoreSampleEvery = -1 }, "FleetConfig.ScoreSampleEvery"},
	}
	for _, tc := range cases {
		cfg := DefaultFleetConfig(1)
		tc.mut(&cfg)
		_, err := NewFleet(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("want error naming %s, got %v", tc.want, err)
		}
	}
	cfg := DefaultFleetConfig(1)
	cfg.ScoreSampleEvery, cfg.ScaleHighWater, cfg.ScaleLowWater, cfg.ScaleCooldownTicks = 0, 0, 0, 0
	got, err := cfg.normalize()
	if err != nil || got.ScoreSampleEvery != 1 || got.ScaleHighWater != 2 || got.ScaleLowWater != 0.25 || got.ScaleCooldownTicks != 25 {
		t.Fatalf("zero values should take the defaults (1, 2, 0.25, 25), got (%d, %g, %g, %d), %v",
			got.ScoreSampleEvery, got.ScaleHighWater, got.ScaleLowWater, got.ScaleCooldownTicks, err)
	}
}

// TestFleetSingleNodeDegenerate: a one-node fleet is valid and behaves.
func TestFleetSingleNodeDegenerate(t *testing.T) {
	cfg := smallFleetConfig(2)
	cfg.Nodes = []machine.Topology{machine.Homogeneous(4, 2)}
	cfg.Stream.RatePerSec = 8000
	res := runFleet(t, cfg, 5000)
	if len(res.Nodes) != 1 || res.Completed == 0 {
		t.Fatalf("single-node fleet broken: %+v", res)
	}
}

// TestFleetCoreRing: a core queue is a ring of exactly QueueCap slots. It
// is full at exactly QueueCap requests, keeps FIFO order while the head
// wraps past the end of its storage, and retiring a prefix frees exactly
// that many slots.
func TestFleetCoreRing(t *testing.T) {
	const capacity = 5
	c := fleetCore{q: make([]fleetReq, capacity)}
	var next, oldest uint64 // ids pushed so far; id of the queue head
	push := func(k int) {
		t.Helper()
		for ; k > 0; k-- {
			if c.full() {
				t.Fatalf("full at %d of %d requests", c.n, capacity)
			}
			c.push(fleetReq{id: next})
			next++
		}
	}
	check := func() {
		t.Helper()
		for i := 0; i < c.n; i++ {
			if got := c.at(i).id; got != oldest+uint64(i) {
				t.Fatalf("head %d, slot %d holds request %d, want %d", c.head, i, got, oldest+uint64(i))
			}
		}
	}
	for round, step := range []struct{ push, drop int }{
		{3, 2}, {4, 3}, {3, 5}, {5, 1}, {1, 4}, {3, 0}, {0, 4}, {5, 5},
	} {
		push(step.push)
		check()
		if want := c.n == capacity; c.full() != want {
			t.Fatalf("round %d: full() = %v with %d of %d queued", round, c.full(), c.n, capacity)
		}
		c.drop(step.drop)
		oldest += uint64(step.drop)
		check()
		if c.head < 0 || c.head >= capacity {
			t.Fatalf("round %d: head %d outside [0, %d)", round, c.head, capacity)
		}
	}
	if next <= 2*capacity {
		t.Fatalf("only %d requests passed through, the head never wrapped twice", next)
	}
}

// TestFleetTinyQueuesWrap: with eight-slot core queues every core's ring
// wraps many times and arrivals shed at the cap. Admission accounting
// holds after every tick (every arrival is completed, shed or still
// queued), and the run reproduces exactly.
func TestFleetTinyQueuesWrap(t *testing.T) {
	cfg := smallFleetConfig(23)
	cfg.QueueCap, cfg.DegradeDepth = 8, 6
	run := func() FleetResult {
		f, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var cores []*fleetCore
		for _, nd := range f.nodes {
			for i := range nd.cores {
				cores = append(cores, &nd.cores[i])
			}
		}
		wrapped := make([]bool, len(cores))
		heads := make([]int, len(cores))
		var ingested int
		for ingested < 30_000 {
			ingested += f.runTick(true)
			r := f.res
			if r.Arrivals != r.Completed+r.Shed+uint64(f.Queued()) {
				t.Fatalf("tick %d: %d arrivals != %d completed + %d shed + %d queued",
					f.tick, r.Arrivals, r.Completed, r.Shed, f.Queued())
			}
			for i, c := range cores {
				wrapped[i] = wrapped[i] || c.head < heads[i]
				heads[i] = c.head
			}
		}
		for i, w := range wrapped {
			if !w {
				t.Fatalf("core %d's ring never wrapped", i)
			}
		}
		f.Drain()
		return f.Result()
	}
	a := run()
	if a.Shed == 0 || a.Degraded == 0 || a.Queued != 0 {
		t.Fatalf("tiny queues should shed and degrade, then drain: %+v", a)
	}
	for _, n := range a.Nodes {
		if n.MaxQueueDepth > cfg.QueueCap || n.Shed > 0 && n.MaxQueueDepth != cfg.QueueCap {
			t.Fatalf("node %d shed %d at peak depth %d, cap %d", n.Node, n.Shed, n.MaxQueueDepth, cfg.QueueCap)
		}
	}
	if b := run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("tiny-queue fleet run not reproducible:\n%v\nvs\n%v", a, b)
	}
}

// TestFleetNodeMatchesMachine: a fleet node prices contention with the
// machine package's model. For the same occupants on a heterogeneous node
// (a cache-size override, a clock override, a FreqScale ≠ 1 and one idle
// core), every core's tick CPI equals machine.Machine's Rate CPI bit for
// bit, and the fleet's rate is clock·scale/CPI.
func TestFleetNodeMatchesMachine(t *testing.T) {
	topo, err := machine.ParseTopology("pkg=3:0.85:1,2;clock=2.4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallFleetConfig(3)
	cfg.Nodes = []machine.Topology{topo}
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nd := f.nodes[0]
	// Core 3 stays idle. Core 2 carries an injected anomaly, so its cache
	// demand is inflated as a polluter.
	occupants := map[int]fleetReq{
		0: {app: 1, tmpl: 0, drift: 1.1, remIns: 1e6},
		1: {app: 2, tmpl: 3, drift: 0.9, remIns: 1e6},
		2: {app: 1, tmpl: 5, drift: 1, anom: true, remIns: 1e6},
		4: {app: 0, tmpl: 2, drift: 1.05, remIns: 1e6},
	}
	// runMachine runs the occupants on a machine.Machine of topology tp.
	runMachine := func(tp machine.Topology) *machine.Machine {
		mc := machine.DefaultConfig()
		mc.Topology = tp
		m := machine.New(sim.NewEngine(), mc)
		for ci, r := range occupants {
			a := f.tmpl[r.app][r.tmpl].act
			a.RefsPerIns *= r.drift
			if r.anom {
				a.RefsPerIns *= anomalyPatFactor
				a.WorkingSetBytes *= anomalyPatFactor
			}
			m.SetActivity(ci, &a)
		}
		return m
	}
	for ci, r := range occupants {
		nd.cores[ci].push(r)
	}
	f.snapshotRates()
	m := runMachine(topo)
	for ci := range nd.cores {
		cpi, want := nd.ct.CPI(ci), m.Rate(ci).CPI
		if math.Float64bits(cpi) != math.Float64bits(want) {
			t.Errorf("core %d: fleet CPI %v, machine CPI %v", ci, cpi, want)
		}
		if ins := 2.4 * m.CoreFrequencyScale(ci) / cpi; cpi != 0 && nd.cores[ci].insPerNs != ins {
			t.Errorf("core %d: insPerNs %v, want clock·scale/cpi = %v", ci, nd.cores[ci].insPerNs, ins)
		}
		if _, busy := occupants[ci]; busy == (cpi == 0) {
			t.Errorf("core %d: busy %v but CPI %v", ci, busy, cpi)
		}
	}
	// The override must matter, or the test would not see it dropped: the
	// 1 MiB package prices its occupants above the default-cache one.
	noOverride, err := machine.ParseTopology("pkg=3:0.85,2;clock=2.4")
	if err != nil {
		t.Fatal(err)
	}
	if plain := runMachine(noOverride); !(m.Rate(0).CPI > plain.Rate(0).CPI) {
		t.Fatalf("cache override does not raise core 0's CPI (%v vs %v)", m.Rate(0).CPI, plain.Rate(0).CPI)
	}
}
