// Behavior templates: the bridge from the workload generators to the
// streaming pipeline. Running the full simulated kernel per arrival would
// cap throughput far below service rates, so the engine pre-generates a
// library of representative requests per application and derives each
// arrival's behavior from a template plus the arrival's jitter bits —
// exactly the information a production system would observe as the
// request's hardware-counter pattern. Patterns are the paper's signature
// metric (L2 references per instruction) resampled into the application's
// progress buckets; CPU time comes from the calibrated cache model's CPI
// over the solo miss ratio.
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
// mix. Template t of app a is a pure function of (seed, a, t).
func buildTemplates(cfg Config) ([][]template, error) {
	mc := machine.DefaultConfig()
	out := make([][]template, len(cfg.Stream.Apps))
	for ai, sa := range cfg.Stream.Apps {
		app, err := workload.ByName(sa.Name)
		if err != nil {
			return nil, err
		}
		bucket := templateBucketIns(sa.Name)
		g := sim.ForkLabeled(cfg.Stream.Seed, "serve-templates-"+sa.Name)
		ts := make([]template, cfg.TemplatesPerApp)
		for t := range ts {
			req := app.NewRequest(uint64(t), g)
			ts[t] = requestTemplate(req, bucket, cfg.MaxPatternLen, mc)
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

// isAnomalous reports whether the arrival's jitter bits inject an anomaly.
func isAnomalous(bits uint64) bool { return bits&anomalyMask == 0 }

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
