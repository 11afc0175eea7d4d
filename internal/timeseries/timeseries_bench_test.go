package timeseries

import (
	"math/rand"
	"testing"
)

func benchSeries(n int) *Series {
	r := rand.New(rand.NewSource(1))
	s := New(Instructions)
	for i := 0; i < n; i++ {
		s.Append(1+r.Float64()*1000, r.Float64()*5)
	}
	return s
}

func BenchmarkResample(b *testing.B) {
	s := benchSeries(1000)
	period := totalLen(s) / 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Resample(period)
	}
}

func BenchmarkCoV(b *testing.B) {
	s := benchSeries(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CoV()
	}
}
