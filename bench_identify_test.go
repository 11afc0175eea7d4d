// Benchmarks for the online identification fast path (Section 4.4 at
// serving scale): a 500-entry signature bank matched against streaming
// prefixes that grow bucket by bucket, the per-request hot path of online
// CPU-usage prediction. Variants: the naive full rescan per update
// (Bank.IdentifyPattern, which rescans the whole prefix against every entry
// and only stops an entry's sum once it can no longer win) and the
// streaming Session ("cascaded"), which keeps one exact prefix-L1
// accumulator per entry and prunes in two stages: a cached partial sum that
// already exceeds the best distance, then early-abandoning accumulation. A
// one-time golden check asserts the session identifies exactly the same
// bank entries as the naive matcher.
//
// Run with:
//
//	go test -bench BenchmarkIdentify -benchmem
package repro_test

import (
	"math"
	"testing"

	"repro/internal/signature"
	"repro/internal/sim"
)

const (
	identifyBankSize  = 500
	identifyStreamLen = 64
	identifyStreams   = 16
)

// identifyFixture builds a 500-entry bank of random-walk signatures plus a
// set of request streams that track bank entries with noise (so matching
// is non-trivial and the best candidate shifts as prefixes grow).
func identifyFixture() (*signature.Bank, [][]float64) {
	g := sim.NewRNG(2026)
	bank := &signature.Bank{ThresholdNs: 10_000}
	for i := 0; i < identifyBankSize; i++ {
		pat := make([]float64, 48+g.Intn(49))
		v := g.Uniform(0.005, 0.05)
		for j := range pat {
			v += g.Normal(0, 0.004)
			pat[j] = math.Abs(v)
		}
		bank.Entries = append(bank.Entries, signature.Entry{
			Pattern:   pat,
			CPUTimeNs: g.Uniform(0, 20_000),
		})
	}
	streams := make([][]float64, identifyStreams)
	for i := range streams {
		base := bank.Entries[g.Intn(identifyBankSize)].Pattern
		s := make([]float64, identifyStreamLen)
		for j := range s {
			var v float64
			if j < len(base) {
				v = base[j]
			}
			s[j] = math.Abs(v + g.Normal(0, 0.001))
		}
		streams[i] = s
	}
	return bank, streams
}

// BenchmarkIdentify measures one full streaming lifetime per op: every
// stream grows bucket by bucket and is re-identified after each arrival
// (identifyStreams × identifyStreamLen updates per op; compare ns/op
// across variants for the per-update speedup).
func BenchmarkIdentify(b *testing.B) {
	bank, streams := identifyFixture()
	matcher := signature.NewMatcher(bank)

	// Golden check: the session must match naive exactly at every prefix
	// length, ties and all.
	cascaded := matcher.NewSession()
	for _, stream := range streams {
		cascaded.Reset()
		for t := 1; t <= len(stream); t++ {
			want := bank.IdentifyPattern(stream[:t])
			cascaded.Extend(stream[t-1])
			if got := cascaded.Best(); got != want {
				b.Fatalf("cascaded best %d, naive %d (prefix %d)", got, want, t)
			}
		}
	}

	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, stream := range streams {
				for t := 1; t <= len(stream); t++ {
					bank.IdentifyPattern(stream[:t])
				}
			}
		}
	})
	b.Run("cascaded", func(b *testing.B) {
		s := matcher.NewSession()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, stream := range streams {
				s.Reset()
				for _, v := range stream {
					s.Extend(v)
					s.Best()
				}
			}
		}
	})
}

// BenchmarkIdentifyCompactBank quantifies bank compaction: the session
// over a medoid-compacted 64-entry bank versus the full 500 entries.
func BenchmarkIdentifyCompactBank(b *testing.B) {
	bank, streams := identifyFixture()
	compact := signature.Compact(bank, 64, 1)
	matcher := signature.NewMatcher(compact)
	b.ReportMetric(float64(len(compact.Entries)), "entries")
	s := matcher.NewSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, stream := range streams {
			s.Reset()
			for _, v := range stream {
				s.Extend(v)
				s.Best()
			}
		}
	}
}
