// Continuous deterministic request streams for the always-on service
// mode. A Stream turns a StreamConfig — base arrival rate, application
// mix, multi-period sinusoidal load modulation, burst windows, and a slow
// workload drift — into an endless arrival sequence on the virtual clock.
// Arrivals are drawn from one owned RNG in a fixed order, so the sequence
// is a pure function of the config: replaying a config bit-identically
// replays the stream, which is what lets the serving pipeline's output be
// golden-fingerprinted.
package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// StreamApp is one application's share of the stream mix.
type StreamApp struct {
	// Name is a workload.ByName application name.
	Name string
	// Weight is the app's relative arrival share (need not normalize).
	Weight float64
}

// StreamPeriod is one sinusoidal load-modulation component: the
// instantaneous rate is scaled by 1 + Amplitude·sin(2π(t/PeriodNs + Phase))
// summed over components, modeling multi-period diurnal/periodic load.
type StreamPeriod struct {
	PeriodNs  float64
	Amplitude float64
	// Phase is the fractional phase offset in [0,1).
	Phase float64
}

// StreamBurst is one transient overload window: arrivals inside
// [StartNs, StartNs+DurationNs) are generated at Factor times the
// modulated rate.
type StreamBurst struct {
	StartNs    float64
	DurationNs float64
	Factor     float64
}

// StreamConfig specifies a deterministic request stream.
type StreamConfig struct {
	// RatePerSec is the base arrival rate in requests per virtual second.
	RatePerSec float64
	// Apps is the application mix (at least one entry).
	Apps []StreamApp
	// Periods are the sinusoidal modulation components (may be empty).
	Periods []StreamPeriod
	// Bursts are transient overload windows (may be empty).
	Bursts []StreamBurst
	// DriftPerSec is the relative per-second drift of request variation
	// patterns: a request arriving at t carries patterns scaled by
	// 1 + DriftPerSec·t/1e9, modeling slow workload evolution that forces
	// the serving pipeline to re-calibrate.
	DriftPerSec float64
	// Cohorts, when ≥ 2, splits requests into that many behavior cohorts
	// (derived from the arrival's jitter bits) whose drift rates spread
	// around DriftPerSec: cohort k drifts at
	// DriftPerSec·(1 + CohortSpread·(2k/(Cohorts−1) − 1)) per second —
	// fleet-scale per-cohort behavior drift. 0 or 1 means one uniform
	// cohort (CohortDriftAt == DriftAt).
	Cohorts int
	// CohortSpread is the relative drift-rate spread across cohorts, in
	// [0, 1]. Zero keeps all cohorts at DriftPerSec.
	CohortSpread float64
	// Seed drives the stream's arrival draws.
	Seed int64
}

// Validate checks the config's invariants.
func (c StreamConfig) Validate() error {
	if !(c.RatePerSec > 0) || math.IsInf(c.RatePerSec, 0) {
		return fmt.Errorf("workload: stream rate must be positive and finite, got %v", c.RatePerSec)
	}
	if len(c.Apps) == 0 {
		return fmt.Errorf("workload: stream needs at least one app in the mix")
	}
	var total float64
	for _, a := range c.Apps {
		if _, err := ByName(a.Name); err != nil {
			return err
		}
		if !(a.Weight > 0) || math.IsInf(a.Weight, 0) {
			return fmt.Errorf("workload: stream mix weight for %s must be positive and finite, got %v", a.Name, a.Weight)
		}
		total += a.Weight
	}
	if !(total > 0) || math.IsInf(total, 0) {
		return fmt.Errorf("workload: stream mix weights must sum to a positive finite value")
	}
	for _, p := range c.Periods {
		if !(p.PeriodNs > 0) || math.IsInf(p.PeriodNs, 0) {
			return fmt.Errorf("workload: stream period must be positive and finite, got %v ns", p.PeriodNs)
		}
		if math.IsNaN(p.Amplitude) || math.Abs(p.Amplitude) > 1 {
			return fmt.Errorf("workload: stream period amplitude must be in [-1,1], got %v", p.Amplitude)
		}
		if math.IsNaN(p.Phase) || p.Phase < 0 || p.Phase >= 1 {
			return fmt.Errorf("workload: stream period phase must be in [0,1), got %v", p.Phase)
		}
	}
	for _, b := range c.Bursts {
		if math.IsNaN(b.StartNs) || b.StartNs < 0 || math.IsInf(b.StartNs, 0) {
			return fmt.Errorf("workload: stream burst start must be non-negative and finite, got %v ns", b.StartNs)
		}
		if !(b.DurationNs > 0) || math.IsInf(b.DurationNs, 0) {
			return fmt.Errorf("workload: stream burst duration must be positive and finite, got %v ns", b.DurationNs)
		}
		if !(b.Factor > 0) || math.IsInf(b.Factor, 0) {
			return fmt.Errorf("workload: stream burst factor must be positive and finite, got %v", b.Factor)
		}
	}
	if math.IsNaN(c.DriftPerSec) || math.Abs(c.DriftPerSec) > 1 {
		return fmt.Errorf("workload: stream drift must be in [-1,1] per second, got %v", c.DriftPerSec)
	}
	if c.Cohorts < 0 {
		return fmt.Errorf("workload: stream cohorts must be non-negative, got %d", c.Cohorts)
	}
	if math.IsNaN(c.CohortSpread) || c.CohortSpread < 0 || c.CohortSpread > 1 {
		return fmt.Errorf("workload: stream cohort spread must be in [0,1], got %v", c.CohortSpread)
	}
	return nil
}

// fmtDur renders virtual nanoseconds in the spec's duration syntax.
func fmtDur(ns float64) string {
	return time.Duration(int64(ns)).String()
}

func fmtF(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// String renders the config in the compact spec syntax ParseStream
// accepts; ParseStream(c.String()) round-trips to an equivalent config
// (durations are quantized to whole nanoseconds).
func (c StreamConfig) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rate=%s", fmtF(c.RatePerSec))
	if len(c.Apps) > 0 {
		b.WriteString(";mix=")
		for i, a := range c.Apps {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s:%s", a.Name, fmtF(a.Weight))
		}
	}
	if len(c.Periods) > 0 {
		b.WriteString(";period=")
		for i, p := range c.Periods {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s:%s", fmtDur(p.PeriodNs), fmtF(p.Amplitude))
			if p.Phase != 0 {
				fmt.Fprintf(&b, ":%s", fmtF(p.Phase))
			}
		}
	}
	if len(c.Bursts) > 0 {
		b.WriteString(";burst=")
		for i, bu := range c.Bursts {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s+%s*%s", fmtDur(bu.StartNs), fmtDur(bu.DurationNs), fmtF(bu.Factor))
		}
	}
	if c.DriftPerSec != 0 {
		fmt.Fprintf(&b, ";drift=%s", fmtF(c.DriftPerSec))
	}
	if c.Cohorts != 0 {
		fmt.Fprintf(&b, ";cohort=%d", c.Cohorts)
		if c.CohortSpread != 0 {
			fmt.Fprintf(&b, ":%s", fmtF(c.CohortSpread))
		}
	}
	if c.Seed != 0 {
		fmt.Fprintf(&b, ";seed=%d", c.Seed)
	}
	return b.String()
}

// ParseStream parses the compact stream spec syntax:
//
//	rate=800000;mix=webserver:4,tpcc:2,rubis:2;period=50ms:0.3,330ms:0.25:0.5;burst=100ms+40ms*1.6;drift=0.01;seed=1
//
// Keys are semicolon-separated; rate and mix are required. period entries
// are duration:amplitude[:phase]; burst entries are start+duration*factor;
// durations use Go syntax (50ms, 1.5s). The returned config always passes
// Validate.
func ParseStream(spec string) (StreamConfig, error) {
	var c StreamConfig
	fail := func(format string, args ...any) (StreamConfig, error) {
		return StreamConfig{}, fmt.Errorf("workload: stream spec: "+format, args...)
	}
	seen := map[string]bool{}
	for _, kv := range strings.Split(spec, ";") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fail("%q is not key=value", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if seen[key] {
			return fail("duplicate key %q", key)
		}
		seen[key] = true
		switch key {
		case "rate":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fail("rate %q: %v", val, err)
			}
			c.RatePerSec = v
		case "mix":
			for _, e := range strings.Split(val, ",") {
				name, w, ok := strings.Cut(e, ":")
				if !ok {
					return fail("mix entry %q is not name:weight", e)
				}
				wv, err := strconv.ParseFloat(w, 64)
				if err != nil {
					return fail("mix weight %q: %v", w, err)
				}
				c.Apps = append(c.Apps, StreamApp{Name: strings.TrimSpace(name), Weight: wv})
			}
		case "period":
			for _, e := range strings.Split(val, ",") {
				parts := strings.Split(e, ":")
				if len(parts) != 2 && len(parts) != 3 {
					return fail("period entry %q is not duration:amplitude[:phase]", e)
				}
				d, err := time.ParseDuration(strings.TrimSpace(parts[0]))
				if err != nil {
					return fail("period duration %q: %v", parts[0], err)
				}
				amp, err := strconv.ParseFloat(parts[1], 64)
				if err != nil {
					return fail("period amplitude %q: %v", parts[1], err)
				}
				p := StreamPeriod{PeriodNs: float64(d.Nanoseconds()), Amplitude: amp}
				if len(parts) == 3 {
					if p.Phase, err = strconv.ParseFloat(parts[2], 64); err != nil {
						return fail("period phase %q: %v", parts[2], err)
					}
				}
				c.Periods = append(c.Periods, p)
			}
		case "burst":
			for _, e := range strings.Split(val, ",") {
				start, rest, ok := strings.Cut(e, "+")
				if !ok {
					return fail("burst entry %q is not start+duration*factor", e)
				}
				dur, factor, ok := strings.Cut(rest, "*")
				if !ok {
					return fail("burst entry %q is not start+duration*factor", e)
				}
				sd, err := time.ParseDuration(strings.TrimSpace(start))
				if err != nil {
					return fail("burst start %q: %v", start, err)
				}
				dd, err := time.ParseDuration(strings.TrimSpace(dur))
				if err != nil {
					return fail("burst duration %q: %v", dur, err)
				}
				f, err := strconv.ParseFloat(factor, 64)
				if err != nil {
					return fail("burst factor %q: %v", factor, err)
				}
				c.Bursts = append(c.Bursts, StreamBurst{
					StartNs: float64(sd.Nanoseconds()), DurationNs: float64(dd.Nanoseconds()), Factor: f,
				})
			}
		case "drift":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fail("drift %q: %v", val, err)
			}
			c.DriftPerSec = v
		case "cohort":
			n, spread, hasSpread := strings.Cut(val, ":")
			v, err := strconv.Atoi(n)
			if err != nil {
				return fail("cohort count %q: %v", n, err)
			}
			c.Cohorts = v
			if hasSpread {
				if c.CohortSpread, err = strconv.ParseFloat(spread, 64); err != nil {
					return fail("cohort spread %q: %v", spread, err)
				}
			}
		case "seed":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return fail("seed %q: %v", val, err)
			}
			c.Seed = v
		default:
			return fail("unknown key %q (valid: rate, mix, period, burst, drift, cohort, seed)", key)
		}
	}
	if err := c.Validate(); err != nil {
		return StreamConfig{}, err
	}
	return c, nil
}

// Arrival is one stream event. Its fields are plain values so arrival
// delivery allocates nothing: the receiving pipeline materializes request
// behavior from (App, Bits, TimeNs) on its own schedule.
type Arrival struct {
	// TimeNs is the virtual arrival time.
	TimeNs int64
	// App indexes StreamConfig.Apps.
	App int
	// Bits is the request's jitter entropy: per-request behavior (template
	// choice, amplitude jitter, anomaly injection) derives from it alone,
	// so a request's behavior is reproducible from its arrival record.
	Bits uint64
}

// Stream generates the arrival sequence of a StreamConfig. Not safe for
// concurrent use; Next allocates nothing.
type Stream struct {
	cfg     StreamConfig
	rng     *sim.RNG
	weights []float64
	tNs     float64
	// bursts are sorted by start for the rate evaluation.
	bursts []StreamBurst
}

// NewStream validates the config and positions the stream at virtual
// time 0.
func NewStream(cfg StreamConfig) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Stream{
		cfg:     cfg,
		rng:     sim.ForkLabeled(cfg.Seed, "workload-stream"),
		weights: make([]float64, len(cfg.Apps)),
		bursts:  append([]StreamBurst(nil), cfg.Bursts...),
	}
	for i, a := range cfg.Apps {
		s.weights[i] = a.Weight
	}
	sort.Slice(s.bursts, func(i, j int) bool { return s.bursts[i].StartNs < s.bursts[j].StartNs })
	return s, nil
}

// RateAt returns the instantaneous arrival rate (requests per virtual
// second) at virtual time t: the base rate under sinusoidal modulation
// (clamped at 5% of base so the stream never stalls) times any active
// burst factors.
func (s *Stream) RateAt(tNs float64) float64 {
	mod := 1.0
	for _, p := range s.cfg.Periods {
		mod += p.Amplitude * math.Sin(2*math.Pi*(tNs/p.PeriodNs+p.Phase))
	}
	if mod < 0.05 {
		mod = 0.05
	}
	rate := s.cfg.RatePerSec * mod
	for _, b := range s.bursts {
		if tNs >= b.StartNs && tNs < b.StartNs+b.DurationNs {
			rate *= b.Factor
		}
	}
	return rate
}

// DriftAt returns the pattern drift factor at virtual time t.
func (s *Stream) DriftAt(tNs int64) float64 {
	return 1 + s.cfg.DriftPerSec*float64(tNs)/1e9
}

// CohortOf returns the cohort index of an arrival's jitter bits (always 0
// without cohorts). It consumes high bits, independent of the low bits the
// serving layer uses for template choice and anomaly injection.
func (c StreamConfig) CohortOf(bits uint64) int {
	if c.Cohorts < 2 {
		return 0
	}
	return int((bits >> 40) % uint64(c.Cohorts))
}

// CohortDriftAt returns the drift factor of a cohort at virtual time t:
// cohorts spread their drift rates by CohortSpread around DriftPerSec.
// With fewer than two cohorts it equals DriftAt.
func (s *Stream) CohortDriftAt(tNs int64, cohort int) float64 {
	n := s.cfg.Cohorts
	if n < 2 {
		return s.DriftAt(tNs)
	}
	rel := 2*float64(cohort)/float64(n-1) - 1
	rate := s.cfg.DriftPerSec * (1 + s.cfg.CohortSpread*rel)
	return 1 + rate*float64(tNs)/1e9
}

// Next fills a with the next arrival. The interarrival gap is an
// exponential draw at the instantaneous rate (a piecewise-evaluated
// inhomogeneous Poisson process); app choice and jitter bits come from the
// same RNG stream, so the whole sequence is a pure function of the config.
func (s *Stream) Next(a *Arrival) {
	rate := s.RateAt(s.tNs)
	gap := s.rng.Exp(1e9 / rate)
	// A floor of 1ns keeps arrival times strictly increasing.
	if gap < 1 {
		gap = 1
	}
	s.tNs += gap
	a.TimeNs = int64(s.tNs)
	if len(s.weights) == 1 {
		a.App = 0
	} else {
		a.App = s.rng.Pick(s.weights)
	}
	// Two 32-bit draws assemble the jitter entropy without widening the
	// RNG API.
	a.Bits = uint64(s.rng.Int63n(1<<32))<<32 | uint64(s.rng.Int63n(1<<32))
}
