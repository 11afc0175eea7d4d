package distance

import (
	"math/rand"
	"testing"
)

var sink float64

func benchSeq(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64() * 5
	}
	return out
}

func benchNames(n int, seed int64) []string {
	words := []string{"read", "write", "poll", "stat", "open", "lseek", "writev", "sendto"}
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = words[r.Intn(len(words))]
	}
	return out
}

func BenchmarkL1_100(b *testing.B) {
	x, y := benchSeq(100, 1), benchSeq(100, 2)
	d := L1{Penalty: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Distance(x, y)
	}
}

func BenchmarkDTW_100(b *testing.B) {
	x, y := benchSeq(100, 1), benchSeq(100, 2)
	d := DTW{AsyncPenalty: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Distance(x, y)
	}
}

func BenchmarkDTW_1000(b *testing.B) {
	x, y := benchSeq(1000, 1), benchSeq(1000, 2)
	d := DTW{AsyncPenalty: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Distance(x, y)
	}
}

// BenchmarkDTWPipelineShape times the exact penalized DTW over every pair
// of a 240-request population shaped like the offline pipeline's input:
// CPI-like random walks whose lengths span 12–150 periods, the range of the
// five applications' resampled patterns, under the population's own peak
// penalty. ns/cell divides by Σ len_i·len_j over the pairs, so the figure
// is comparable across populations of other sizes and lengths.
func BenchmarkDTWPipelineShape(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	seqs := make([][]float64, 240)
	for i := range seqs {
		s := make([]float64, 12+r.Intn(139))
		cpi := 2.0
		for j := range s {
			cpi += 0.15 * r.NormFloat64()
			if cpi < 0.5 {
				cpi = 0.5
			}
			s[j] = cpi
		}
		seqs[i] = s
	}
	d := DTW{AsyncPenalty: PeakPenalty(seqs)}
	var cells float64
	for i := range seqs {
		for j := i + 1; j < len(seqs); j++ {
			cells += float64(len(seqs[i]) * len(seqs[j]))
		}
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i := range seqs {
			for j := i + 1; j < len(seqs); j++ {
				sink = d.Distance(seqs[i], seqs[j])
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(cells*float64(b.N)), "ns/cell")
}

func BenchmarkMatrix100x64(b *testing.B) {
	seqs := make([][]float64, 100)
	for i := range seqs {
		seqs[i] = benchSeq(64, int64(i))
	}
	d := DTW{AsyncPenalty: 0.5}
	for _, bench := range []struct {
		name string
		opt  MatrixOptions
	}{
		{"serial", MatrixOptions{Workers: 1}},
		{"parallel", MatrixOptions{}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				NewMatrixFromSequences(seqs, d, bench.opt)
			}
		})
	}
}

func BenchmarkLevenshtein_300(b *testing.B) {
	x, y := benchNames(300, 1), benchNames(300, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Levenshtein(x, y)
	}
}

func BenchmarkPeakPenalty(b *testing.B) {
	seqs := make([][]float64, 50)
	for i := range seqs {
		seqs[i] = benchSeq(40, int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PeakPenalty(seqs)
	}
}
