package sched

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/predict"
	"repro/internal/sampling"
	"repro/internal/signature"
	"repro/internal/sim"
)

// monitorWith builds a monitor with pinned predictions: runs paired with a
// positive value predict that value (well above/below a threshold of 1);
// runs without an entry predict 0.
func monitorWith(runs []*kernel.RequestRun, vals []float64) *Monitor {
	m := &Monitor{Alpha: 0.6, UnitNs: 1, preds: map[*kernel.RequestRun]*predict.VaEWMA{}}
	for i, run := range runs {
		if vals[i] <= 0 {
			continue
		}
		p := predict.NewVaEWMA(0.9, 1)
		for j := 0; j < 8; j++ {
			p.Observe(vals[i], 1)
		}
		m.preds[run] = p
	}
	return m
}

// twoClusterBank returns a bank with two well-separated signatures.
func twoClusterBank() *signature.Bank {
	return &signature.Bank{
		Metric:      metrics.L2RefsPerIns,
		BucketIns:   1e4,
		ThresholdNs: 10,
		Entries: []signature.Entry{
			{Pattern: []float64{1, 1, 1}, CPUTimeNs: 5e6},
			{Pattern: []float64{9, 9, 9}, CPUTimeNs: 40e6},
		},
	}
}

// sessionsWith pins each run's signature cluster by pre-extending its
// session with that bank entry's exact pattern.
func sessionsWith(bank *signature.Bank, runs []*kernel.RequestRun, clusters []int) *SignatureSessions {
	s := &SignatureSessions{
		matcher:   signature.NewMatcher(bank),
		metric:    bank.Metric,
		bucketIns: bank.BucketIns,
		states:    map[*kernel.RequestRun]*sessionState{},
	}
	for i, run := range runs {
		sess := s.matcher.NewSession()
		sess.Extend(bank.Entries[clusters[i]].Pattern...)
		s.states[run] = &sessionState{sess: sess}
	}
	return s
}

func runThread(run *kernel.RequestRun) *kernel.Thread { return &kernel.Thread{Run: run} }

// TestPickEdgeCases drives every registered policy's full Pick through the
// cases the simulator can't hit on purpose: an empty ready queue and a
// single-candidate fallthrough, both with and without curIncluded. Every
// policy must return index 0 (the out-of-range fallback would mask a bug
// here, so this locks the explicit contract).
func TestPickEdgeCases(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig()) // idle: no core runs anything
	tk := sampling.NewTracker(k, sampling.Config{})
	ctx := &PolicyContext{Tracker: tk, Threshold: 1, Bank: twoClusterBank()}

	single := []*kernel.Thread{runThread(&kernel.RequestRun{})}
	for _, f := range policies {
		pol, err := f.New(ctx)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for _, tc := range []struct {
			name  string
			cands []*kernel.Thread
			curIn bool
		}{
			{"empty", nil, false},
			{"empty-slice", []*kernel.Thread{}, false},
			{"single", single, false},
			{"single-current", single, true},
		} {
			if got := pol.Pick(k, 0, tc.cands, tc.curIn); got != 0 {
				t.Errorf("%s/%s: Pick = %d, want 0", f.Name, tc.name, got)
			}
		}
		if q := pol.Quantum(k); q <= 0 {
			t.Errorf("%s: Quantum = %v, want positive", f.Name, q)
		}
	}
}

// TestPickEasedTieBreak locks contention easing's candidate scan: the
// lowest index wins among equally acceptable candidates (queue order,
// never map order), and an all-high queue gives up to the head.
func TestPickEasedTieBreak(t *testing.T) {
	runs := []*kernel.RequestRun{{}, {}, {}}
	high, low := 10.0, 0.0
	cands := []*kernel.Thread{runThread(runs[0]), runThread(runs[1]), runThread(runs[2])}

	cases := []struct {
		name        string
		vals        []float64
		want        int
		eased, gave uint64
	}{
		{"head-low", []float64{low, low, low}, 0, 0, 0},
		{"first-low-wins", []float64{high, low, low}, 1, 1, 0},
		{"second-low", []float64{high, high, low}, 2, 1, 0},
		{"all-high-ties", []float64{high, high, high}, 0, 0, 1},
	}
	for _, tc := range cases {
		p := NewContentionEasing(monitorWith(runs, tc.vals), 1)
		if got := p.pickEased(cands); got != tc.want {
			t.Errorf("%s: pickEased = %d, want %d", tc.name, got, tc.want)
		}
		if p.Stats.Eased != tc.eased || p.Stats.GaveUp != tc.gave {
			t.Errorf("%s: stats eased=%d gaveUp=%d, want %d/%d",
				tc.name, p.Stats.Eased, p.Stats.GaveUp, tc.eased, tc.gave)
		}
	}
}

// TestPickLowTopology locks the topology-aware scan: threadless candidates
// are skipped (never preferred over a real request), all-high queues give
// up, and the local/global stat split follows the pressure kind.
func TestPickLowTopology(t *testing.T) {
	runs := []*kernel.RequestRun{{}, {}}
	high, low := 10.0, 0.0
	idle := &kernel.Thread{} // no Run: an idle worker on the queue

	p := NewTopologyAware(monitorWith(runs, []float64{high, low}), 1)
	cands := []*kernel.Thread{runThread(runs[0]), idle, runThread(runs[1])}
	if got := p.pickLow(true, cands); got != 2 {
		t.Fatalf("pickLow skipped to %d, want 2 (idle thread must not win)", got)
	}
	if p.Stats.EasedLocal != 1 || p.Stats.EasedGlobal != 0 {
		t.Fatalf("local easing stats = %+v", p.Stats)
	}
	if got := p.pickLow(false, cands); got != 2 || p.Stats.EasedGlobal != 1 {
		t.Fatalf("global easing: got %d, stats %+v", got, p.Stats)
	}

	allHigh := NewTopologyAware(monitorWith(runs, []float64{high, high}), 1)
	cands = []*kernel.Thread{runThread(runs[0]), runThread(runs[1])}
	if got := allHigh.pickLow(true, cands); got != 0 || allHigh.Stats.GaveUp != 1 {
		t.Fatalf("all-high ties: got %d, stats %+v", got, allHigh.Stats)
	}
}

// TestPickAvoidingCluster locks the cluster co-scheduling scan: only a
// high-usage candidate in a hot cluster is skipped; a high-usage request of
// a different cluster, or a low-usage request of the same cluster, is
// schedulable. All-polluter queues give up to the head.
func TestPickAvoidingCluster(t *testing.T) {
	bank := twoClusterBank()
	runs := []*kernel.RequestRun{{}, {}, {}, {}}
	high, low := 10.0, 0.0
	// runs: 0 high@cluster1, 1 high@cluster0, 2 low@cluster1, 3 high@cluster1
	mon := monitorWith(runs, []float64{high, high, low, high})
	sess := sessionsWith(bank, runs, []int{1, 0, 1, 1})
	p := NewClusterCoSched(mon, sess, 1)

	cands := []*kernel.Thread{runThread(runs[0]), runThread(runs[1]), runThread(runs[2])}
	maskCluster1 := uint64(1 << 1)
	if got := p.pickAvoiding(maskCluster1, cands); got != 1 {
		t.Fatalf("pickAvoiding = %d, want 1 (high but different cluster)", got)
	}
	cands = []*kernel.Thread{runThread(runs[0]), runThread(runs[2])}
	if got := p.pickAvoiding(maskCluster1, cands); got != 1 || p.Stats.Eased != 2 {
		t.Fatalf("low same-cluster candidate: got %d, stats %+v", got, p.Stats)
	}
	cands = []*kernel.Thread{runThread(runs[0]), runThread(runs[3])}
	if got := p.pickAvoiding(maskCluster1, cands); got != 0 || p.Stats.GaveUp != 1 {
		t.Fatalf("all polluters: got %d, stats %+v", got, p.Stats)
	}
	// An unidentified or low-usage head passes any mask untouched.
	if got := p.pickAvoiding(maskCluster1, []*kernel.Thread{runThread(runs[2]), runThread(runs[0])}); got != 0 {
		t.Fatalf("low head: got %d, want 0", got)
	}
}

// TestDeadlinePick locks the deadline policy's ordering: earliest deadline
// wins, ties go to the lowest index, threadless candidates are never
// preferred, and the predicted-service term genuinely reorders (a
// later-submitted request predicted short overtakes an earlier long one).
func TestDeadlinePick(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig())

	// Without sessions the deadline is Submit + BaseSlack: FIFO by submit.
	p := &DeadlineOrdered{BaseSlack: 2 * sim.Millisecond, ServiceWeight: 4}
	early, late := &kernel.RequestRun{Submit: 100}, &kernel.RequestRun{Submit: 900}
	cands := []*kernel.Thread{runThread(late), runThread(early)}
	if got := p.Pick(k, 0, cands, false); got != 1 {
		t.Fatalf("submit order: Pick = %d, want 1", got)
	}
	if p.Stats.Reordered != 1 || p.Stats.Opportunities != 1 {
		t.Fatalf("stats = %+v", p.Stats)
	}
	// Equal deadlines tie to the lowest index.
	twin := &kernel.RequestRun{Submit: 100}
	if got := p.Pick(k, 0, []*kernel.Thread{runThread(early), runThread(twin)}, false); got != 0 {
		t.Fatalf("tie-break: Pick = %d, want 0", got)
	}
	// A threadless candidate never beats a real request.
	if got := p.Pick(k, 0, []*kernel.Thread{{}, runThread(early)}, false); got != 1 {
		t.Fatalf("idle head: Pick = %d, want 1", got)
	}

	// With sessions, a later request predicted cheap (cluster 0, 5 ms)
	// overtakes an earlier one predicted expensive (cluster 1, 40 ms).
	bank := twoClusterBank()
	runs := []*kernel.RequestRun{{Submit: 0}, {Submit: 1 * sim.Millisecond}}
	pd := NewDeadlineOrdered(sessionsWith(bank, runs, []int{1, 0}))
	cands = []*kernel.Thread{runThread(runs[0]), runThread(runs[1])}
	if got := pd.Pick(k, 0, cands, false); got != 1 {
		t.Fatalf("predicted service: Pick = %d, want 1", got)
	}
}

// TestPolicyRegistry pins the registry contract: the name list and its
// order (golden tables and hypotheses iterate it), lookup behavior, and
// each factory's input requirements.
func TestPolicyRegistry(t *testing.T) {
	want := "round-robin,contention-easing,topology-aware,cluster-cosched,deadline"
	if got := strings.Join(PolicyNames(), ","); got != want {
		t.Fatalf("PolicyNames = %s\nwant %s", got, want)
	}
	for _, f := range policies {
		got, ok := LookupPolicy(f.Name)
		if !ok || got.Name != f.Name {
			t.Errorf("LookupPolicy(%q) = %v, %v", f.Name, got.Name, ok)
		}
	}
	if _, ok := LookupPolicy("fifo"); ok {
		t.Error("LookupPolicy of unknown name succeeded")
	}
	if _, err := NewPolicy("fifo", &PolicyContext{}); err == nil || !strings.Contains(err.Error(), "fifo") {
		t.Errorf("NewPolicy unknown: err = %v, want name in message", err)
	}

	// The baseline needs nothing.
	if pol, err := NewPolicy("round-robin", &PolicyContext{}); err != nil || pol == nil {
		t.Fatalf("round-robin from empty context: %v, %v", pol, err)
	}
	// Adaptive policies without a threshold, tracker, or bank fail loudly
	// at build time, before any simulation runs.
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig())
	tk := sampling.NewTracker(k, sampling.Config{})
	for _, tc := range []struct {
		policy   string
		ctx      *PolicyContext
		want     string
		sentinel error // nil: no sentinel for this failure
	}{
		{"contention-easing", &PolicyContext{Tracker: tk}, "threshold", ErrNoThreshold},
		{"topology-aware", &PolicyContext{Tracker: tk}, "threshold", ErrNoThreshold},
		{"contention-easing", &PolicyContext{Threshold: 1}, "tracker", nil},
		{"cluster-cosched", &PolicyContext{Tracker: tk, Threshold: 1}, "signature bank", ErrNoBank},
		{"deadline", &PolicyContext{Tracker: tk}, "signature bank", ErrNoBank},
	} {
		_, err := NewPolicy(tc.policy, tc.ctx)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.policy, err, tc.want)
		}
		if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: err = %v, not errors.Is %v", tc.policy, err, tc.sentinel)
		}
	}

	// A full context builds every policy, and the shared monitor/session
	// state is constructed exactly once across factories.
	ctx := &PolicyContext{Tracker: tk, Threshold: 1, Bank: twoClusterBank()}
	for _, f := range policies {
		pol, err := f.New(ctx)
		if err != nil || pol == nil {
			t.Fatalf("%s: %v, %v", f.Name, pol, err)
		}
	}
	if ctx.Monitor == nil || ctx.Sessions == nil {
		t.Fatal("context did not cache monitor/sessions")
	}
}
