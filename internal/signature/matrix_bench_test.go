package signature

import (
	"math/rand"
	"testing"

	"repro/internal/distance"
)

// BenchmarkPatternMatrixFill times one pairwise fill over a compaction
// window's worth of patterns (512, 2–30 buckets, the default serving
// template range): by column sweep (the AVX2 kernel where the CPU has
// it), by column sweep forced onto the Go loop, and pair by pair.
func BenchmarkPatternMatrixFill(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pats := make([][]float64, 512)
	for i := range pats {
		pats[i] = make([]float64, 2+r.Intn(29))
		for t := range pats[i] {
			pats[i][t] = 4 * r.Float64()
		}
	}
	var dm distance.Matrix
	sweep := func(vector bool) func(b *testing.B) {
		return func(b *testing.B) {
			defer func(hw bool) { useAVX2 = hw }(useAVX2)
			useAVX2 = useAVX2 && vector
			pm := NewPatternMatrix(len(pats), 30)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pm.Fill(&dm, pats)
			}
		}
	}
	b.Run("column-sweep", sweep(true))
	b.Run("column-sweep-go", sweep(false))
	b.Run("pairwise", func(b *testing.B) {
		pair := func(i, j int) float64 { return PatternDistance(pats[i], pats[j]) }
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dm.Fill(len(pats), pair, distance.MatrixOptions{Workers: 1})
		}
	})
}
