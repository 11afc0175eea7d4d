// Behavior templates and the arrival intake: the bridge from the workload
// generators to the streaming pipeline. Running the full simulated kernel
// per arrival would cap throughput far below service rates, so each owner
// pre-generates a library of representative requests per application and
// derives each arrival's behavior from a template plus the arrival's
// jitter bits — exactly the information a production system would observe
// as the request's hardware-counter pattern. Patterns are the paper's
// signature metric (L2 references per instruction) resampled into the
// application's progress buckets; CPU time comes from the calibrated cache
// model's CPI over the solo miss ratio.
//
// The intake is the one front end the engine and the fleet share: it
// reads the stream up to a tick boundary and resolves each arrival's bits
// into a reqRec. What happens next (shedding, degrading, placement and the
// Injected count) stays with each owner.
package serve

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// template is one representative request behavior.
type template struct {
	pattern []float64 // refs/ins per progress bucket, ≤ MaxPatternLen
	cpuNs   float64   // solo CPU consumption
	// Fleet-mode demand summary (ignored by the single-node engine): total
	// instructions plus the instruction-weighted activity (base CPI, cache
	// demand; the largest phase working set) that fleet nodes price through
	// machine.Contention.
	ins float64
	act machine.Activity
}

// tmplMatch is the cached identification of a template against the current
// bank, serving degraded requests at constant cost.
type tmplMatch struct {
	best  int
	high  bool
	score float64
}

// templateBucketIns is the per-application progress bucket, following the
// paper's Figure 10 progress units.
func templateBucketIns(app string) float64 {
	switch app {
	case "webserver":
		return 10e3
	case "tpcc":
		return 300e3
	case "tpch":
		return 1e6
	case "rubis":
		return 200e3
	case "webwork":
		return 1e6
	default:
		return 100e3
	}
}

// buildTemplates generates the per-app template libraries for the stream's
// mix, perApp templates each, patterns capped at maxLen buckets. Template t
// of app a is a pure function of (seed, a, t).
func buildTemplates(sc workload.StreamConfig, perApp, maxLen int) ([][]template, error) {
	mc := machine.DefaultConfig()
	out := make([][]template, len(sc.Apps))
	for ai, sa := range sc.Apps {
		app, err := workload.ByName(sa.Name)
		if err != nil {
			return nil, err
		}
		bucket := templateBucketIns(sa.Name)
		g := sim.ForkLabeled(sc.Seed, "serve-templates-"+sa.Name)
		ts := make([]template, perApp)
		for t := range ts {
			req := app.NewRequest(uint64(t), g)
			ts[t] = requestTemplate(req, bucket, maxLen, mc)
			if len(ts[t].pattern) == 0 {
				return nil, fmt.Errorf("serve: app %s produced an empty template", sa.Name)
			}
		}
		out[ai] = ts
	}
	return out, nil
}

// longestPattern returns the longest template pattern in the library, in
// buckets: the bound on every pattern a bank maintainer materializes,
// stores or merges.
func longestPattern(tmpl [][]template) int {
	n := 0
	for _, ts := range tmpl {
		for _, t := range ts {
			n = max(n, len(t.pattern))
		}
	}
	return n
}

// requestTemplate resamples a generated request's inherent refs/ins into
// progress buckets and prices its solo CPU time through the cache model.
func requestTemplate(req *workload.Request, bucketIns float64, maxLen int, mc machine.Config) template {
	var t template
	var fill, acc float64 // instructions and refs accumulated in the open bucket
	for _, p := range req.Phases {
		a := p.Activity
		cpi := cache.CPI(mc.Cache, a.BaseCPI, a.RefsPerIns, a.SoloMissRatio, 1)
		t.cpuNs += p.Instructions * cpi / mc.Clock()
		t.ins += p.Instructions
		t.act.BaseCPI += p.Instructions * a.BaseCPI
		t.act.RefsPerIns += p.Instructions * a.RefsPerIns
		t.act.SoloMissRatio += p.Instructions * a.SoloMissRatio
		if a.WorkingSetBytes > t.act.WorkingSetBytes {
			t.act.WorkingSetBytes = a.WorkingSetBytes
		}
		remaining := p.Instructions
		for remaining > 0 {
			take := bucketIns - fill
			if take > remaining {
				take = remaining
			}
			fill += take
			acc += take * a.RefsPerIns
			remaining -= take
			if fill >= bucketIns {
				if len(t.pattern) < maxLen {
					t.pattern = append(t.pattern, acc/fill)
				}
				fill, acc = 0, 0
			}
		}
	}
	if fill > 0 && len(t.pattern) < maxLen {
		t.pattern = append(t.pattern, acc/fill)
	}
	if t.ins > 0 {
		t.act.BaseCPI /= t.ins
		t.act.RefsPerIns /= t.ins
		t.act.SoloMissRatio /= t.ins
	}
	return t
}

// Anomaly injection: arrivals whose low jitter byte is zero (1/256) carry
// a contention anomaly — the second half of the pattern inflated, CPU time
// stretched — mirroring the adverse cache-sharing effects the offline
// detector hunts in Section 4.3.
const (
	anomalyMask      = 0xFF
	anomalyPatFactor = 2.5
	anomalyCPUFactor = 1.8
)

// reqRec is what a request is, fixed at admission: a pure function of its
// arrival and the template library. Queued requests embed it, and the
// sliding window stores it as it is, since compaction rematerializes the
// full pattern from these fields. The arrival time stays outside it: the
// window never reads it.
type reqRec struct {
	drift  float64
	cpuNs  float64 // solo CPU cost, stretched for an injected anomaly
	app    int32
	tmpl   int32
	cohort int32 // arrival cohort (0 without cohorts)
	anom   bool
}

// intake is the stream front end of an engine or a fleet: the arrival
// stream, the template library, the arrival read past the last tick
// boundary, and the sequence number of the next arrival.
type intake struct {
	sc          workload.StreamConfig
	stream      *workload.Stream
	tmpl        [][]template
	pending     workload.Arrival
	havePending bool
	seq         uint64
}

// newIntake builds the stream and its template library.
func newIntake(sc workload.StreamConfig, templatesPerApp, maxPatternLen int) (intake, error) {
	stream, err := workload.NewStream(sc)
	if err != nil {
		return intake{}, err
	}
	tmpl, err := buildTemplates(sc, templatesPerApp, maxPatternLen)
	if err != nil {
		return intake{}, err
	}
	return intake{sc: sc, stream: stream, tmpl: tmpl}, nil
}

// next consumes the next arrival if it lands before tickEnd and returns
// its record, its time, and its sequence number: the count of arrivals
// consumed before it. The record resolves the arrival's bits: the template
// from Bits>>8, the anomaly flag from the low byte, the cohort and its
// drift at the arrival time, and the solo CPU cost.
func (in *intake) next(tickEnd int64) (rec reqRec, timeNs int64, seq uint64, ok bool) {
	if !in.havePending {
		in.stream.Next(&in.pending)
		in.havePending = true
	}
	a := &in.pending
	if a.TimeNs >= tickEnd {
		return rec, 0, 0, false
	}
	in.havePending = false
	seq = in.seq
	in.seq++
	tmpls := in.tmpl[a.App]
	t := int((a.Bits >> 8) % uint64(len(tmpls)))
	anom := a.Bits&anomalyMask == 0
	cohort := in.sc.CohortOf(a.Bits)
	drift := in.stream.CohortDriftAt(a.TimeNs, cohort)
	cpu := tmpls[t].cpuNs * drift
	if anom {
		cpu *= anomalyCPUFactor
	}
	rec = reqRec{
		drift:  drift,
		cpuNs:  cpu,
		app:    int32(a.App),
		tmpl:   int32(t),
		cohort: int32(cohort),
		anom:   anom,
	}
	return rec, a.TimeNs, seq, true
}

// patternValue is bucket i of a request's materialized pattern: the
// template value under the request's drift factor, inflated in the second
// half for injected anomalies.
func patternValue(tmpl []float64, i int, drift float64, anom bool) float64 {
	v := tmpl[i] * drift
	if anom && i >= len(tmpl)/2 {
		v *= anomalyPatFactor
	}
	return v
}

// appendPattern appends a request's whole materialized pattern to buf.
func appendPattern(buf, tmpl []float64, drift float64, anom bool) []float64 {
	for i := range tmpl {
		buf = append(buf, patternValue(tmpl, i, drift, anom))
	}
	return buf
}
