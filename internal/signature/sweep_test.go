package signature

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/distance"
)

// TestPatternMatrixKernelsAgree fills the same populations with the Go
// sweep and, where the CPU has AVX2, the vector kernel, and requires every
// cell to match bit for bit (NaN payloads aside). Populations shrink from
// 66 patterns to none, so rows hold every cell count from 0 to 65 (4k±1
// included) and each fill follows a larger one on the same PatternMatrix;
// pattern lengths cover 0–40, and one pattern per large population has
// 256 buckets. Values draw −0, ±Inf, NaN and subnormals at three rates.
// Not parallel: it flips useAVX2.
func TestPatternMatrixKernelsAgree(t *testing.T) {
	hw := useAVX2
	defer func() { useAVX2 = hw }()
	if !hw {
		t.Log("CPU without AVX2: only the Go sweep is checked, the vector leg is skipped")
	}
	specials := []float64{
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
	}
	r := rand.New(rand.NewSource(1))
	var pops [][][]float64
	for _, rate := range []int{0, 32, 4} {
		for _, n := range []int{66, 33, 17, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0} {
			pats := make([][]float64, n)
			for j := range pats {
				l := j % 41
				if j == 41 {
					l = 256
				} else if j > 41 {
					l = r.Intn(41)
				}
				pats[j] = make([]float64, l)
				for k := range pats[j] {
					pats[j][k] = 8*r.Float64() - 4
					if rate > 0 && r.Intn(rate) == 0 {
						pats[j][k] = specials[r.Intn(len(specials))]
					}
				}
			}
			r.Shuffle(n, func(i, j int) { pats[i], pats[j] = pats[j], pats[i] })
			pops = append(pops, pats)
		}
	}

	var goPM, vecPM PatternMatrix
	var goDM, vecDM distance.Matrix
	for p, pats := range pops {
		useAVX2 = false
		goPM.Fill(&goDM, pats)
		for i := range pats {
			for j := i + 1; j < len(pats); j++ {
				if got, want := goDM.At(i, j), PatternDistance(pats[i], pats[j]); !sameFloat(got, want) {
					t.Fatalf("population %d (%d patterns), cell (%d,%d): Go sweep %v, PatternDistance %v", p, len(pats), i, j, got, want)
				}
			}
		}
		if !hw {
			continue
		}
		useAVX2 = true
		vecPM.Fill(&vecDM, pats)
		for i := range pats {
			for j := i + 1; j < len(pats); j++ {
				if got, want := vecDM.At(i, j), goDM.At(i, j); !sameFloat(got, want) {
					t.Fatalf("population %d (%d patterns), cell (%d,%d) len (%d,%d): AVX2 kernel %v (%#x), Go sweep %v (%#x)",
						p, len(pats), i, j, len(pats[i]), len(pats[j]), got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestSweepRowAVX2ChecksBounds: a column store one value short of the
// kernel's last read panics in Go before the kernel runs, whatever the CPU.
func TestSweepRowAVX2ChecksBounds(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("no AVX2 kernel off amd64")
	}
	const n, i = 9, 0 // row 0 of 9 patterns: 8 cells
	a := []float64{1, 2, 3}
	cols := make([]float64, len(a)*n-1)
	defer func() {
		if recover() == nil {
			t.Fatal("sweepRowAVX2 over a short column store did not panic")
		}
	}()
	sweepRowAVX2(make([]float64, 8), a, cols, n, i)
}
