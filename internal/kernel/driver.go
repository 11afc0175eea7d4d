package kernel

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// LoadConfig drives a closed-loop client population against one
// application, the way the paper's benchmark harnesses (SPECweb99 clients,
// TPC terminal emulators, RUBiS session emulators) do.
type LoadConfig struct {
	// App generates the requests.
	App workload.App
	// Concurrency is the number of closed-loop client sessions. 1
	// reproduces the paper's serial (1-core) executions; the 4-core
	// experiments use enough sessions to keep all cores busy.
	Concurrency int
	// Requests is the total number of requests to complete.
	Requests int
	// ThinkMean is the mean exponential client think time between a
	// response and the next request (0 for a saturating load).
	ThinkMean sim.Time
	// Seed drives workload generation and think times.
	Seed int64
}

// Driver runs a closed-loop load against a kernel.
type Driver struct {
	cfg       LoadConfig
	k         *Kernel
	gen       *sim.RNG
	think     *sim.RNG
	submitted int
	completed int
	stopped   bool
}

// NewDriver attaches a closed-loop driver to the kernel, creating the
// application's worker pools. Call Start before running the engine.
func NewDriver(k *Kernel, cfg LoadConfig) *Driver {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	for tier := 0; tier < cfg.App.Tiers(); tier++ {
		k.AddWorkers(tier, cfg.Concurrency)
	}
	d := &Driver{
		cfg:   cfg,
		k:     k,
		gen:   sim.ForkLabeled(cfg.Seed, "driver-gen-"+cfg.App.Name()),
		think: sim.ForkLabeled(cfg.Seed, "driver-think-"+cfg.App.Name()),
	}
	k.OnRequestDone(d.onDone)
	return d
}

// Start launches the client sessions. The engine's event loop then carries
// the run; the driver stops the engine when the configured number of
// requests has completed.
func (d *Driver) Start() {
	sessions := d.cfg.Concurrency
	if sessions > d.cfg.Requests {
		sessions = d.cfg.Requests
	}
	for i := 0; i < sessions; i++ {
		d.submitNext()
	}
}

// Completed reports how many requests have finished.
func (d *Driver) Completed() int { return d.completed }

func (d *Driver) submitNext() {
	if d.submitted >= d.cfg.Requests {
		return
	}
	d.submitted++
	req := d.cfg.App.NewRequest(uint64(d.submitted), d.gen)
	d.k.Submit(req)
}

func (d *Driver) onDone(*RequestRun) {
	d.completed++
	if d.completed >= d.cfg.Requests {
		if !d.stopped {
			d.stopped = true
			d.k.Engine().Stop()
		}
		return
	}
	if d.cfg.ThinkMean > 0 {
		delay := sim.Time(d.think.Exp(float64(d.cfg.ThinkMean)))
		d.k.Engine().After(delay, d.submitNext)
		return
	}
	d.submitNext()
}
