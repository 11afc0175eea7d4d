package main

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// streamSystem is the part of serve.Engine and serve.Fleet the stream
// workloads drive.
type streamSystem interface {
	Process(n int)
	Close()
	// counts snapshots the cumulative deterministic counters.
	counts() streamCounts
	// outcome is the full deterministic result, for exact comparison.
	outcome() any
}

// streamCounts are the cumulative counters the stream metrics derive from.
type streamCounts struct {
	Arrivals, Shed, Degraded, Completed, Queued uint64
	Injected, Flagged, FlaggedInjected          uint64
	Early, EarlyWrong                           uint64
	Compactions, Merges, Ticks                  uint64
	Cycles, Instructions                        float64
}

func (c streamCounts) add(b streamCounts) streamCounts {
	return streamCounts{
		Arrivals: c.Arrivals + b.Arrivals, Shed: c.Shed + b.Shed, Degraded: c.Degraded + b.Degraded,
		Completed: c.Completed + b.Completed, Queued: c.Queued + b.Queued,
		Injected: c.Injected + b.Injected, Flagged: c.Flagged + b.Flagged, FlaggedInjected: c.FlaggedInjected + b.FlaggedInjected,
		Early: c.Early + b.Early, EarlyWrong: c.EarlyWrong + b.EarlyWrong,
		Compactions: c.Compactions + b.Compactions, Merges: c.Merges + b.Merges, Ticks: c.Ticks + b.Ticks,
		Cycles: c.Cycles + b.Cycles, Instructions: c.Instructions + b.Instructions,
	}
}

// sub is the change from b to c; Queued stays a level.
func (c streamCounts) sub(b streamCounts) streamCounts {
	return streamCounts{
		Arrivals: c.Arrivals - b.Arrivals, Shed: c.Shed - b.Shed, Degraded: c.Degraded - b.Degraded,
		Completed: c.Completed - b.Completed, Queued: c.Queued,
		Injected: c.Injected - b.Injected, Flagged: c.Flagged - b.Flagged, FlaggedInjected: c.FlaggedInjected - b.FlaggedInjected,
		Early: c.Early - b.Early, EarlyWrong: c.EarlyWrong - b.EarlyWrong,
		Compactions: c.Compactions - b.Compactions, Merges: c.Merges - b.Merges, Ticks: c.Ticks - b.Ticks,
		Cycles: c.Cycles - b.Cycles, Instructions: c.Instructions - b.Instructions,
	}
}

// conserved reports arrivals = completed + shed + queued.
func (c streamCounts) conserved() bool { return c.Arrivals == c.Completed+c.Shed+c.Queued }

type engineSys struct{ *serve.Engine }

func (e engineSys) counts() streamCounts {
	r := e.Result()
	return streamCounts{
		Arrivals: r.Arrivals, Shed: r.Shed, Degraded: r.Degraded, Completed: r.Completed, Queued: uint64(r.Queued),
		Injected: r.Injected, Flagged: r.Flagged, FlaggedInjected: r.FlaggedInjected,
		Early: r.EarlyPredictions, EarlyWrong: r.EarlyWrong, Compactions: r.Compactions, Ticks: r.Ticks,
	}
}

func (e engineSys) outcome() any { return e.Result() }

type fleetSys struct{ *serve.Fleet }

func (f fleetSys) counts() streamCounts {
	r := f.Result()
	return streamCounts{
		Arrivals: r.Arrivals, Shed: r.Shed, Degraded: r.Degraded, Completed: r.Completed, Queued: uint64(r.Queued),
		Injected: r.Injected, Flagged: r.Flagged, FlaggedInjected: r.FlaggedInjected,
		Compactions: r.CompactionRounds, Merges: r.Merges, Ticks: r.Ticks,
		Cycles: r.Cycles, Instructions: r.Instructions,
	}
}

func (f fleetSys) outcome() any { return f.Result() }

// group is the set of independent instances one stream run drives. Each
// instance gets its own seed derived from the run's seed, so the simulated
// outcomes average over several template libraries instead of one.
type group []streamSystem

// Process runs n arrivals on every instance in turn.
func (g group) Process(n int) {
	for _, s := range g {
		s.Process(n)
	}
}

func (g group) Close() {
	for _, s := range g {
		s.Close()
	}
}

func (g group) counts() streamCounts {
	var c streamCounts
	for _, s := range g {
		c = c.add(s.counts())
	}
	return c
}

func (g group) outcome() []any {
	out := make([]any, len(g))
	for i, s := range g {
		out[i] = s.outcome()
	}
	return out
}

// streamSpec describes one stream workload. All sizes are in arrivals per
// instance; the timed segment calls Process(chunk) in a closed loop.
type streamSpec struct {
	name string
	// build constructs one instance with the given worker count and
	// optional collector.
	build func(seed int64, workers int, col *obs.Collector) (streamSystem, error)
	// instances is how many independent instances a run drives.
	instances int
	// warm is the warm-up length: past the stream's burst and enough
	// compactions (and merges) for every pool to reach its steady size.
	warm int
	// chunk is one Process call; windowChunks chunks make one throughput
	// window; checkpointChunks chunks make the deterministic segment every
	// simulated metric and outcome check is taken from.
	chunk, windowChunks, checkpointChunks int
	// gated lists the simulated metrics steady enough across seeds to be
	// reported on this workload (see README.md, "Metric applicability").
	gated []string
	// rungWarm and rungChunk size the parallel-scaling rung.
	rungWarm, rungChunk int
}

var serveSteady = streamSpec{
	name: "serve-steady",
	build: func(seed int64, workers int, col *obs.Collector) (streamSystem, error) {
		cfg := serve.DefaultConfig(seed)
		cfg.Workers = workers
		cfg.Obs = col
		e, err := serve.New(cfg)
		if err != nil {
			return nil, err
		}
		return engineSys{e}, nil
	},
	instances: 2,
	// Past the 100–140ms burst window, a full beat of the two load
	// sinusoids and ≥16 compactions (the warm-up of BenchmarkServeSteadyState).
	warm:             1_700_000,
	chunk:            100_000,
	windowChunks:     3,
	checkpointChunks: 20,
	gated:            []string{"served_frac", "full_service_frac", "flag_f1"},
	rungWarm:         300_000,
	rungChunk:        200_000,
}

// fleetCrowdRate doubles DefaultFleetStream's 24k req/s: a sustained flash
// crowd that keeps the admission ladder busy.
const fleetCrowdRate = 48_000

var fleetCrowd = streamSpec{
	name: "fleet-crowd",
	build: func(seed int64, workers int, col *obs.Collector) (streamSystem, error) {
		cfg := serve.DefaultFleetConfig(seed)
		cfg.Policy = serve.FleetContentionEase
		cfg.Stream.RatePerSec = fleetCrowdRate
		cfg.Workers = workers
		cfg.Obs = col
		f, err := serve.NewFleet(cfg)
		if err != nil {
			return nil, err
		}
		return fleetSys{f}, nil
	},
	instances: 4,
	// ≈8.3 virtual seconds: past the 5–6.5s flash crowd, 16 compaction
	// rounds and 4 fleet-wide merges.
	warm:             400_000,
	chunk:            20_000,
	windowChunks:     3,
	checkpointChunks: 25,
	gated:            []string{"served_frac", "full_service_frac", "flag_f1", "sim_p99_ms", "sim_cpi"},
	rungWarm:         100_000,
	rungChunk:        50_000,
}

func runServeSteady(o opts) (*report, error) { return runStream(o, serveSteady) }
func runFleetCrowd(o opts) (*report, error)  { return runStream(o, fleetCrowd) }

// setupStream builds and warms the run's instances, returning them with
// the host seconds and heap allocations the set-up took.
func setupStream(spec streamSpec, seed int64, col *obs.Collector) (group, float64, uint64, error) {
	m0 := mallocs()
	t0 := time.Now()
	g := make(group, 0, spec.instances)
	for i := 0; i < spec.instances; i++ {
		s, err := spec.build(seed*int64(spec.instances)+int64(i), 1, col)
		if err != nil {
			g.Close()
			return nil, 0, 0, fmt.Errorf("%s: %w", spec.name, err)
		}
		g = append(g, s)
	}
	g.Process(spec.warm)
	return g, time.Since(t0).Seconds(), mallocs() - m0, nil
}

// segment is one timed closed-loop run over a warmed group.
type segment struct {
	windows    []float64 // arrivals per host second, one per window
	speeds     []float64 // host speed before each window
	arrivals   uint64
	busy       float64 // host seconds inside the windows
	elapsed    float64
	start      streamCounts // counters when the segment began
	checkpoint streamCounts // counters after checkpointChunks chunks
	outcome    []any        // full deterministic results at the checkpoint
	// checkpointMallocs counts heap allocations up to the checkpoint.
	checkpointMallocs uint64
}

// ticker runs one chunk on every instance. The untraced segment calls
// Process(chunk); the traced one steps ticks (see tickRecorder), which
// reaches the same state.
type ticker func(g group, chunk int)

func plainChunk(g group, chunk int) { g.Process(chunk) }

// runSegment drives the group until at least seconds have passed and the
// checkpoint has been reached.
func runSegment(g group, spec streamSpec, seconds float64, step ticker) segment {
	seg := segment{start: g.counts()}
	m0 := mallocs()
	begin := time.Now()
	speed := hostSpeed()
	winStart, winArr := time.Now(), seg.start.Arrivals
	for chunks := 1; ; chunks++ {
		step(g, spec.chunk)
		atWindow, atCheckpoint := chunks%spec.windowChunks == 0, chunks == spec.checkpointChunks
		if !atWindow && !atCheckpoint {
			continue
		}
		now := time.Now()
		c := g.counts()
		if atCheckpoint {
			seg.checkpointMallocs = mallocs() - m0
			seg.checkpoint = c
			seg.outcome = g.outcome()
		}
		if !atWindow {
			continue
		}
		secs := now.Sub(winStart).Seconds()
		seg.busy += secs
		seg.windows = append(seg.windows, float64(c.Arrivals-winArr)/secs)
		seg.speeds = append(seg.speeds, speed)
		seg.elapsed = now.Sub(begin).Seconds()
		if chunks >= spec.checkpointChunks && seg.elapsed >= seconds {
			seg.arrivals = c.Arrivals - seg.start.Arrivals
			return seg
		}
		speed = hostSpeed()
		winStart, winArr = time.Now(), c.Arrivals
	}
}

// streamSimulated derives the simulated outcome metrics of the
// deterministic segment from its counter deltas and checkpoint results.
func streamSimulated(d streamCounts, outcome []any) map[string]float64 {
	m := map[string]float64{
		"served_frac":       1 - frac(float64(d.Shed), float64(d.Arrivals)),
		"full_service_frac": frac(float64(d.Arrivals-d.Shed-d.Degraded), float64(d.Arrivals)),
		"flag_f1":           f1(float64(d.FlaggedInjected), float64(d.Flagged), float64(d.Injected)),
	}
	var p99 []float64
	for _, o := range outcome {
		if r, ok := o.(serve.FleetResult); ok {
			p99 = append(p99, r.P99Ns/1e6)
		}
	}
	if len(p99) > 0 {
		m["sim_p99_ms"] = mean(p99)
		m["sim_cpi"] = d.Cycles / d.Instructions
	} else {
		m["mispredict_frac"] = frac(float64(d.EarlyWrong), float64(d.Early))
	}
	return m
}

// simulatedMetrics are the end-to-end metrics read off the virtual clock
// and the model; they repeat exactly for a seed.
var simulatedMetrics = []string{"served_frac", "full_service_frac", "mispredict_frac", "flag_f1", "sim_p99_ms", "sim_cpi", "sim_cpi_p99"}

// gate copies the simulated metrics gated on a workload into the report
// and stands naValue in for the rest, whose values go to the result file.
func gate(rep *report, sim map[string]float64, gated []string) {
	for _, name := range simulatedMetrics {
		rep.metrics[name] = naValue
	}
	for _, name := range gated {
		rep.metrics[name] = sim[name]
	}
	rep.extra["simulated"] = sim
}

// checkStream applies the stream workloads' correctness gate.
func checkStream(rep *report, spec streamSpec, seg segment, g group) {
	cp, end := seg.checkpoint, g.counts()
	rep.check(cp.conserved(), "%s: conservation broken at checkpoint: %+v", spec.name, cp)
	rep.check(end.conserved(), "%s: conservation broken at end: %+v", spec.name, end)
	d := cp.sub(seg.start)
	rep.check(d.Arrivals > 0 && d.Completed > 0 && d.Compactions > 0, "%s: pipeline inert over the checkpoint segment: %+v", spec.name, d)
}

func runStream(o opts, spec streamSpec) (*report, error) {
	if o.trace {
		return traceStream(o, spec)
	}
	rep := &report{metrics: map[string]float64{}}
	var g group
	var setups, speeds []float64
	var setupMallocs uint64
	var first streamCounts
	for i := 0; i < setupReps; i++ {
		if g != nil {
			g.Close()
			g = nil
		}
		heapMB() // collect the previous instances outside the timed set-up
		speeds = append(speeds, hostSpeed())
		s, secs, allocs, err := setupStream(spec, o.seed, nil)
		if err != nil {
			return nil, err
		}
		g, setupMallocs = s, allocs
		setups = append(setups, secs)
		c := s.counts()
		if i == 0 {
			first = c
		}
		rep.check(c == first, "%s: set-up %d reached %+v, set-up 0 reached %+v", spec.name, i, c, first)
	}
	defer g.Close()

	seg := runSegment(g, spec, o.seconds, plainChunk)
	heap := heapMB()
	checkStream(rep, spec, seg, g)
	d := seg.checkpoint.sub(seg.start)
	speed := median(append(speeds, seg.speeds...))
	rep.extra = map[string]any{
		"setup_s_all": setups, "req_per_s_windows": seg.windows, "host_speed": speed,
		"timed_s": seg.elapsed, "timed_arrivals": seg.arrivals,
		"steady_allocs_per_req": frac(float64(seg.checkpointMallocs), float64(d.Arrivals)),
	}
	gate(rep, streamSimulated(d, seg.outcome), spec.gated)
	rep.metrics["setup_s"] = median(setups) * speed
	rep.metrics["req_per_s"] = float64(seg.arrivals) / seg.busy / speed
	rep.metrics["live_heap_mb"] = heap
	warm := uint64(spec.warm * spec.instances)
	rep.metrics["allocs_per_req"] = float64(setupMallocs+seg.checkpointMallocs) / float64(warm+d.Arrivals)
	rep.attempted = int64(seg.arrivals)
	rep.outcome = map[string]any{"setup": first, "checkpoint": seg.outcome}
	return rep, nil
}
