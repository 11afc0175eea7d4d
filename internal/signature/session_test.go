package signature

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/sim"
)

// randomBank generates a bank of random-walk patterns with assorted
// lengths (including empty and shorter-than-prefix entries) and plants
// exact duplicates so identification ties are exercised.
func randomBank(g *sim.RNG, entries, maxLen int) *Bank {
	b := &Bank{ThresholdNs: 500}
	for i := 0; i < entries; i++ {
		pat := make([]float64, g.Intn(maxLen+1))
		v := g.Uniform(0, 0.05)
		for j := range pat {
			v += g.Normal(0, 0.01)
			pat[j] = math.Abs(v)
		}
		b.Entries = append(b.Entries, Entry{Pattern: pat, CPUTimeNs: g.Uniform(0, 1000)})
	}
	// Duplicates force distance ties: naive keeps the lowest index, and
	// the fast path must agree.
	for i := 3; i+5 < len(b.Entries); i += 5 {
		b.Entries[i+5].Pattern = append([]float64(nil), b.Entries[i].Pattern...)
	}
	return b
}

// randomStream generates a prefix stream resembling bank patterns closely
// enough that the best match changes over time.
func randomStream(g *sim.RNG, b *Bank, maxLen int) []float64 {
	if len(b.Entries) > 0 && g.Bool(0.5) {
		// Follow a bank entry with noise, then run past its end.
		base := b.Entries[g.Intn(len(b.Entries))].Pattern
		out := make([]float64, maxLen)
		for i := range out {
			var v float64
			if i < len(base) {
				v = base[i]
			}
			out[i] = math.Abs(v + g.Normal(0, 0.002))
		}
		return out
	}
	out := make([]float64, g.Intn(maxLen)+1)
	v := g.Uniform(0, 0.05)
	for i := range out {
		v += g.Normal(0, 0.01)
		out[i] = math.Abs(v)
	}
	return out
}

// TestSessionMatchesNaive is the golden-equality property test: on
// randomized banks and streams — with random chunk sizes, ties, entries
// shorter than the prefix, and mid-stream tail revisions — the session
// reports exactly the index, distance and prediction naive
// IdentifyPattern gives.
func TestSessionMatchesNaive(t *testing.T) {
	g := sim.NewRNG(1234)
	for trial := 0; trial < 60; trial++ {
		bank := randomBank(g, 5+g.Intn(60), 24)
		m := NewMatcher(bank)
		s := m.NewSession()

		stream := randomStream(g, bank, 40)
		pos := 0
		for pos < len(stream) {
			pos += g.Intn(4)
			if pos > len(stream) {
				pos = len(stream)
			}
			prefix := stream[:pos]
			if g.Bool(0.1) && pos > 0 {
				// Simulate a resampler revising the final partial bucket:
				// Update must detect the rewrite and rebuild exactly.
				prefix = append([]float64(nil), prefix...)
				prefix[pos-1] = math.Abs(prefix[pos-1] + g.Normal(0, 0.01))
				stream = append(prefix, stream[pos:]...)
			}
			want := bank.IdentifyPattern(prefix)
			s.Update(prefix)
			if got := s.Best(); got != want {
				t.Fatalf("trial %d len %d: session best %d, naive %d", trial, pos, got, want)
			}
			wantD := math.Inf(1)
			if want >= 0 {
				wantD = prefixL1(prefix, bank.Entries[want].Pattern)
			}
			if got := s.bestD; got != wantD {
				t.Fatalf("trial %d len %d: best distance %v, naive %v", trial, pos, got, wantD)
			}
			if s.PredictHigh() != bank.PredictHighUsage(prefix) {
				t.Fatalf("trial %d len %d: prediction mismatch", trial, pos)
			}
		}
	}
}

// TestSessionsShareMatcher: many goroutines, each reusing its own
// session across requests, read one Matcher at once (exercised under
// -race by `make check`). Every request's final identification must equal
// the naive matcher on its full stream.
func TestSessionsShareMatcher(t *testing.T) {
	g := sim.NewRNG(4242)
	bank := randomBank(g, 120, 32)
	m := NewMatcher(bank)

	const requests = 96
	streams := make([][]float64, requests)
	for i := range streams {
		streams[i] = randomStream(g, bank, 48)
	}

	finals := make([]int, requests)
	highs := make([]bool, requests)
	workers := runtime.GOMAXPROCS(0) * 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ses := m.NewSession()
			for i := w; i < requests; i += workers {
				ses.Reset()
				stream := streams[i]
				for pos := 0; pos < len(stream); {
					end := min(pos+1+i%3, len(stream))
					ses.Extend(stream[pos:end]...)
					ses.Best()
					pos = end
				}
				finals[i], highs[i] = ses.Best(), ses.PredictHigh()
			}
		}()
	}
	wg.Wait()

	for i, stream := range streams {
		if want := bank.IdentifyPattern(stream); finals[i] != want {
			t.Fatalf("request %d: session best %d, naive %d", i, finals[i], want)
		}
		if want := bank.PredictHighUsage(stream); highs[i] != want {
			t.Fatalf("request %d: session prediction %v, naive %v", i, highs[i], want)
		}
	}
}

// TestSessionUpdateRewind checks the Update path end to end: a revised
// tail (as the resampler produces when a request ends mid-bucket) must be
// detected and the rebuilt state must match naive identification.
func TestSessionUpdateRewind(t *testing.T) {
	g := sim.NewRNG(5)
	bank := randomBank(g, 40, 24)
	ses := NewMatcher(bank).NewSession()

	stream := randomStream(g, bank, 30)
	for pos := 1; pos <= len(stream); pos++ {
		prefix := append([]float64(nil), stream[:pos]...)
		if pos > 1 {
			prefix[pos-1] *= 1.5 // pretend the tail bucket is still partial
		}
		ses.Update(prefix)
		if got, want := ses.Best(), bank.IdentifyPattern(prefix); got != want {
			t.Fatalf("pos %d: update best %d, naive %d", pos, got, want)
		}
	}
}

func TestSessionEmptyCases(t *testing.T) {
	empty := NewMatcher(&Bank{}).NewSession()
	if empty.Best() != -1 || empty.PredictHigh() {
		t.Fatal("empty bank session should report -1/false")
	}
	empty.Extend(1, 2, 3)
	if empty.Best() != -1 {
		t.Fatal("empty bank session should stay -1 after buckets")
	}

	b := &Bank{Entries: []Entry{
		{Pattern: []float64{5, 5}},
		{Pattern: []float64{1, 2}},
	}}
	s := NewMatcher(b).NewSession()
	// Zero buckets observed: every entry is at distance 0, naive keeps
	// the first.
	if got, want := s.Best(), b.IdentifyPattern(nil); got != want {
		t.Fatalf("empty prefix best = %d, want %d", got, want)
	}
	s.Extend(1)
	if got := s.Best(); got != 1 {
		t.Fatalf("best after one bucket = %d, want 1", got)
	}
	s.Reset()
	if s.Len() != 0 || s.Best() != b.IdentifyPattern(nil) {
		t.Fatal("reset session should match the empty-prefix naive result")
	}
}

// TestSessionIncrementalExtend drives a long stream one bucket at a time —
// the serving-shaped access pattern — and checks agreement at every step.
func TestSessionIncrementalExtend(t *testing.T) {
	g := sim.NewRNG(99)
	bank := randomBank(g, 80, 48)
	s := NewMatcher(bank).NewSession()
	stream := randomStream(g, bank, 64)
	for i, v := range stream {
		s.Extend(v)
		if got, want := s.Best(), bank.IdentifyPattern(stream[:i+1]); got != want {
			t.Fatalf("bucket %d: best %d, naive %d", i, got, want)
		}
	}
}

// TestSessionReuseAllocatesNothing: once its prefix buffer has grown, a
// session reused across requests — Reset, one Extend per bucket, Best
// after each — allocates nothing. sched.SignatureSessions pools sessions
// on this.
func TestSessionReuseAllocatesNothing(t *testing.T) {
	g := sim.NewRNG(31)
	bank := randomBank(g, 64, 48)
	streams := make([][]float64, 8)
	for i := range streams {
		streams[i] = randomStream(g, bank, 64)
	}
	s := NewMatcher(bank).NewSession()
	run := func() {
		for _, stream := range streams {
			s.Reset()
			for _, v := range stream {
				s.Extend(v)
				s.Best()
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("reused session allocates %v objects per %d streams, want 0", allocs, len(streams))
	}
}

func TestBuildEmptyTraces(t *testing.T) {
	b := Build(nil, 0, 100_000, 500)
	if len(b.Entries) != 0 {
		t.Fatalf("empty traces should build an empty bank, got %d entries", len(b.Entries))
	}
	if b.ThresholdNs != 0 || math.IsNaN(b.ThresholdNs) {
		t.Fatalf("empty bank threshold = %v, want 0", b.ThresholdNs)
	}
	if b.IdentifyPattern([]float64{1}) != -1 || b.PredictHighUsage([]float64{1}) {
		t.Fatal("empty bank should identify -1 / predict low")
	}
}

func TestCompact(t *testing.T) {
	bank := buildBank(t) // 10 near-identical light + 10 near-identical heavy
	c := Compact(bank, 2, 1)
	if len(c.Entries) != 2 {
		t.Fatalf("compact entries = %d, want 2", len(c.Entries))
	}
	if c.ThresholdNs != bank.ThresholdNs {
		t.Fatalf("compaction changed the threshold: %v vs %v", c.ThresholdNs, bank.ThresholdNs)
	}
	types := map[string]bool{}
	for _, e := range c.Entries {
		types[e.Type] = true
	}
	if !types["light"] || !types["heavy"] {
		t.Fatalf("compaction should keep one medoid per family, got %v", types)
	}
	// The compact bank still classifies prefixes correctly.
	if !c.PredictHighUsage([]float64{0.011, 0.029}) {
		t.Fatal("compact bank should predict high for a heavy prefix")
	}
	if c.PredictHighUsage([]float64{0.0052, 0.0058}) {
		t.Fatal("compact bank should predict low for a light prefix")
	}
	// Degenerate sizes leave the bank alone.
	if got := Compact(bank, 0, 1); got != bank {
		t.Fatal("k<=0 should return the bank unchanged")
	}
	if got := Compact(bank, len(bank.Entries), 1); got != bank {
		t.Fatal("k>=len should return the bank unchanged")
	}
}

func TestPastRequestsRingMatchesWindowSemantics(t *testing.T) {
	// The ring-buffer implementation must agree with a recomputed sliding
	// window mean on a randomized observation stream.
	g := sim.NewRNG(7)
	for _, size := range []int{1, 3, 10} {
		p := NewPastRequests(size)
		var window []float64
		for i := 0; i < 200; i++ {
			v := g.Uniform(0, 1000)
			p.Observe(v)
			window = append(window, v)
			if len(window) > size {
				window = window[1:]
			}
			var sum float64
			for _, w := range window {
				sum += w
			}
			threshold := g.Uniform(0, 1000)
			if got, want := p.PredictHigh(threshold), sum/float64(len(window)) > threshold; got != want {
				t.Fatalf("size %d step %d: PredictHigh(%v) = %v, window mean %v", size, i, threshold, got, sum/float64(len(window)))
			}
		}
	}
	// Degenerate size: never predicts high.
	p := NewPastRequests(0)
	p.Observe(100)
	if p.PredictHigh(1) {
		t.Fatal("size-0 predictor should always predict low")
	}
}
