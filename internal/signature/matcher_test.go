package signature

import (
	"testing"

	"repro/internal/sim"
)

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
		if s1.Best() != s2.Best() || s1.bestD != s2.bestD {
			t.Fatalf("trial %d: rebuilt matcher diverges: (%d,%v) vs (%d,%v)",
				trial, s1.Best(), s1.bestD, s2.Best(), s2.bestD)
		}
	}
}
