package signature

import (
	"testing"

	"repro/internal/sim"
)

// TestSessionRebindMatchesNaive: swapping a session onto a new bank
// mid-stream must leave it answering exactly what naive IdentifyPattern
// says against the new bank for the full observed prefix — including for
// buckets that arrive after the swap.
func TestSessionRebindMatchesNaive(t *testing.T) {
	g := sim.NewRNG(77)
	for trial := 0; trial < 200; trial++ {
		oldBank := randomBank(g, 3+g.Intn(30), 40)
		newBank := randomBank(g, 3+g.Intn(30), 40)
		oldM, newM := NewMatcher(oldBank), NewMatcher(newBank)
		stream := randomStream(g, oldBank, 60)
		cut := g.Intn(len(stream) + 1)

		ses := oldM.NewSession()
		ses.Extend(stream[:cut]...)
		ses.Best() // force an identification against the old bank
		ses.Rebind(newM)
		if got, want := ses.Best(), newBank.IdentifyPattern(stream[:cut]); got != want {
			t.Fatalf("trial %d: after rebind Best=%d, naive=%d", trial, got, want)
		}
		ses.Extend(stream[cut:]...)
		if got, want := ses.Best(), newBank.IdentifyPattern(stream); got != want {
			t.Fatalf("trial %d: post-rebind extend Best=%d, naive=%d", trial, got, want)
		}
		wantBest, wantD := newBank.IdentifyPatternScored(stream)
		if ses.Best() != wantBest || ses.BestDistance() != wantD {
			t.Fatalf("trial %d: scored mismatch: (%d,%v) vs (%d,%v)",
				trial, ses.Best(), ses.BestDistance(), wantBest, wantD)
		}
	}
}

// TestMatcherRebuildMatchesNew: a rebuilt matcher must behave identically
// to a freshly constructed one.
func TestMatcherRebuildMatchesNew(t *testing.T) {
	g := sim.NewRNG(78)
	m := &Matcher{}
	for trial := 0; trial < 50; trial++ {
		b := randomBank(g, 1+g.Intn(40), 50)
		m.Rebuild(b)
		fresh := NewMatcher(b)
		stream := randomStream(g, b, 70)
		s1, s2 := m.NewSession(), fresh.NewSession()
		s1.Extend(stream...)
		s2.Extend(stream...)
		if s1.Best() != s2.Best() || s1.BestDistance() != s2.BestDistance() {
			t.Fatalf("trial %d: rebuilt matcher diverges: (%d,%v) vs (%d,%v)",
				trial, s1.Best(), s1.BestDistance(), s2.Best(), s2.BestDistance())
		}
	}
}

// TestSessionRebindMidRequestAndIdle: a session reused across requests
// the way a serving shard drives it. A bank swap lands either mid-request
// (the observed prefix is kept and re-identified against the new bank) or
// between requests (the idle session is rebound, then Reset for the next
// request); either way every result must equal naive identification on
// the new bank.
func TestSessionRebindMidRequestAndIdle(t *testing.T) {
	g := sim.NewRNG(79)
	banks := []*Bank{randomBank(g, 20, 30), randomBank(g, 35, 30)}
	cur := 0
	ses := NewMatcher(banks[cur]).NewSession()
	for req := 0; req < 16; req++ {
		st := randomStream(g, banks[cur], 40)
		ses.Reset()
		cut := len(st) / 2
		ses.Extend(st[:cut]...)
		ses.Best()
		if req%2 == 1 {
			// Mid-request: prefix observed against the old bank, tail
			// against the new.
			cur = 1 - cur
			ses.Rebind(NewMatcher(banks[cur]))
		}
		ses.Extend(st[cut:]...)
		wantBest, wantD := banks[cur].IdentifyPatternScored(st)
		if ses.Best() != wantBest || ses.BestDistance() != wantD {
			t.Fatalf("request %d: (%d,%v) vs naive (%d,%v)", req, ses.Best(), ses.BestDistance(), wantBest, wantD)
		}
		if req%2 == 0 {
			// Idle: the swap lands after the request finished.
			cur = 1 - cur
			ses.Rebind(NewMatcher(banks[cur]))
		}
	}
}

// TestSessionRebindAllocFree: swaps between same-shaped banks must not
// allocate once the session's buffers exist.
func TestSessionRebindAllocFree(t *testing.T) {
	g := sim.NewRNG(80)
	bank := randomBank(g, 16, 24)
	m1, m2 := NewMatcher(bank), NewMatcher(bank)
	ses := m1.NewSession()
	ses.Extend(randomStream(g, bank, 20)...)
	ses.Best()
	cur := false
	allocs := testing.AllocsPerRun(100, func() {
		if cur {
			ses.Rebind(m1)
		} else {
			ses.Rebind(m2)
		}
		cur = !cur
	})
	if allocs != 0 {
		t.Fatalf("Rebind allocates %v per swap, want 0", allocs)
	}
}
