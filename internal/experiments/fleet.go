package experiments

import (
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/serve"
	"repro/internal/workload"
)

// FleetResult reports experiment 19: the streaming pipeline scaled to a
// simulated heterogeneous fleet, comparing round-robin placement against
// fleet-wide contention-easing on the same arrival stream — the paper's
// Section 5.2 scheduler claim at datacenter granularity. The fingerprint
// covers the stream spec, the fleet topology, and both runs' full
// deterministic results (per-node and fleet-wide CPI and p99).
type FleetResult struct {
	Spec     string
	Fleet    string
	Requests int
	RR       serve.FleetResult
	Eased    serve.FleetResult
}

func (r *FleetResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet service mode: %d requests over %q\n", r.Requests, r.Spec)
	fmt.Fprintf(&b, "fleet topology: %s (%d nodes)\n", r.Fleet, len(r.RR.Nodes))
	b.WriteString(r.RR.String())
	b.WriteString(r.Eased.String())
	dCPI := (r.RR.CPI - r.Eased.CPI) / r.RR.CPI * 100
	dP99 := (r.RR.P99Ns - r.Eased.P99Ns) / r.RR.P99Ns * 100
	fmt.Fprintf(&b, "contention easing vs round-robin: CPI %+.2f%%, p99 %+.2f%%\n", dCPI, dP99)
	return b.String()
}

// Fleet runs experiment 19: one deterministic arrival stream over the
// standard heterogeneous 16-core fleet, once under round-robin placement
// and once under contention-easing, at a scale of one million requests per
// policy. Bursts and the bank maintenance cadence track the run's span so
// every scale exercises the flash crowd, per-node compaction, and
// fleet-wide bank merges. Results are bit-identical across repeats and
// GOMAXPROCS settings.
func Fleet(cfg Config) (*FleetResult, error) {
	requests := cfg.scaled(1_000_000, 20_000)
	fc := serve.DefaultFleetConfig(cfg.Seed)
	// The flash crowd lands at 30% of the expected span regardless of
	// scale; compaction runs ~10 rounds and merges ~5 times per run.
	spanNs := float64(requests) / fc.Stream.RatePerSec * 1e9
	fc.Stream.Bursts = []workload.StreamBurst{
		{StartNs: 0.30 * spanNs, DurationNs: 0.15 * spanNs, Factor: 2},
	}
	if ticks := int(spanNs / float64(fc.TickNs)); ticks/10 > 0 {
		fc.CompactTicks = ticks / 10
	} else {
		fc.CompactTicks = 1
	}
	fc.MergeEvery = 2
	fc.Obs = cfg.Obs

	res := &FleetResult{
		Spec:     fc.Stream.String(),
		Fleet:    machine.FleetString(fc.Nodes),
		Requests: requests,
	}
	for _, pol := range []serve.FleetPolicy{serve.FleetRoundRobin, serve.FleetContentionEase} {
		fc.Policy = pol
		f, err := serve.NewFleet(fc)
		if err != nil {
			return nil, err
		}
		f.Process(requests)
		f.Drain()
		r := f.Result()
		if pol == serve.FleetRoundRobin {
			res.RR = r
		} else {
			res.Eased = r
		}
	}
	return res, nil
}
