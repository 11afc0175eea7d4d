package distance

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func randSeqs(seed int64, n, minLen, maxLen int) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		out[i] = randSeq(r, minLen+r.Intn(maxLen-minLen+1))
	}
	return out
}

func TestMatrixParallelEqualsSerial(t *testing.T) {
	// The golden-equality guarantee: parallelism changes when a cell is
	// computed, never what. Every worker/block configuration must produce
	// a matrix bit-identical to the serial fill.
	seqs := randSeqs(1, 60, 5, 40)
	d := DTW{AsyncPenalty: 0.5}
	serial := NewMatrixFromSequences(seqs, d, MatrixOptions{Workers: 1})
	for _, opt := range []MatrixOptions{
		{},
		{Workers: 2},
		{Workers: 7, RowBlock: 1},
		{Workers: 16, RowBlock: 5},
		{Workers: 100},
	} {
		par := NewMatrixFromSequences(seqs, d, opt)
		if len(par.vals) != len(serial.vals) {
			t.Fatalf("opt %+v: %d cells vs %d", opt, len(par.vals), len(serial.vals))
		}
		for i := range par.vals {
			if par.vals[i] != serial.vals[i] {
				t.Fatalf("opt %+v: cell %d = %v, serial %v", opt, i, par.vals[i], serial.vals[i])
			}
		}
	}
}

func TestMatrixMatchesDirectDistance(t *testing.T) {
	seqs := randSeqs(2, 25, 3, 30)
	for _, d := range []Measure{DTW{}, DTW{AsyncPenalty: 0.7}, L1{Penalty: 2}} {
		m := NewMatrixFromSequences(seqs, d, MatrixOptions{Workers: 4})
		for i := range seqs {
			for j := range seqs {
				want := 0.0
				if i != j {
					want = d.Distance(seqs[i], seqs[j])
				}
				if got := m.At(i, j); got != want {
					t.Fatalf("%s At(%d,%d) = %v, want %v", d.Name(), i, j, got, want)
				}
			}
		}
	}
}

func TestMatrixSymmetryAndDiagonal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(30)
		m := NewMatrix(n, func(i, j int) float64 { return float64(i*31 + j) }, MatrixOptions{Workers: 1 + r.Intn(8)})
		if m.N() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if m.At(i, i) != 0 {
				return false
			}
			for j := i + 1; j < n; j++ {
				if m.At(i, j) != m.At(j, i) || m.At(i, j) != float64(i*31+j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMatrixCallsEachPairOnce(t *testing.T) {
	const n = 40
	var calls [n * n]atomic.Int32
	pair := func(i, j int) float64 {
		calls[i*n+j].Add(1)
		return 1
	}
	NewMatrix(n, PairFunc(pair), MatrixOptions{Workers: 8, RowBlock: 3})
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := int32(0)
			if i < j {
				want = 1
			}
			if got := calls[i*n+j].Load(); got != want {
				t.Fatalf("pair(%d,%d) called %d times, want %d", i, j, got, want)
			}
		}
	}
}

func TestMatrixTinyPopulations(t *testing.T) {
	for n := 0; n < 2; n++ {
		m := NewMatrix(n, func(i, j int) float64 { panic("no pairs to compute") }, MatrixOptions{})
		if m.N() != n {
			t.Fatalf("N() = %d, want %d", m.N(), n)
		}
	}
	if v := NewMatrix(1, nil, MatrixOptions{}).At(0, 0); v != 0 {
		t.Fatalf("single-item self distance = %v", v)
	}
}

func TestMatrixRowSumAndMedoid(t *testing.T) {
	// 1-D points: the medoid of {0, 1, 2, 10} is 1 (sums 13, 11, 11→ tie
	// broken low? sums: 0→13, 1→11, 2→11, 10→27; tie between 1 and 2 →
	// lowest index wins).
	pts := []float64{0, 1, 2, 10}
	m := NewMatrix(len(pts), func(i, j int) float64 { return math.Abs(pts[i] - pts[j]) }, MatrixOptions{})
	if s := m.RowSum(0); s != 13 {
		t.Fatalf("RowSum(0) = %v, want 13", s)
	}
	if got := m.Medoid(); got != 1 {
		t.Fatalf("Medoid() = %d, want 1", got)
	}
	empty := NewMatrix(0, nil, MatrixOptions{})
	if empty.Medoid() != -1 {
		t.Fatal("empty matrix should have no medoid")
	}
}

// TestMatrixConcurrentFillRace exercises the pool under the race detector:
// many workers, small blocks, a pair function reading shared slices.
func TestMatrixConcurrentFillRace(t *testing.T) {
	seqs := randSeqs(3, 80, 10, 30)
	d := DTW{AsyncPenalty: 0.3}
	m := NewMatrixFromSequences(seqs, d, MatrixOptions{Workers: 16, RowBlock: 1})
	// Concurrent readers are safe on the immutable result.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < m.N(); i++ {
			m.RowSum(i)
		}
	}()
	if med := m.Medoid(); med < 0 || med >= m.N() {
		t.Fatalf("medoid %d out of range", med)
	}
	<-done
}

// TestMatrixFillReuse: refilling a matrix in place, by Fill or row by row
// by FillRows, must produce results identical to a fresh NewMatrix, for
// shrinking and growing populations, Row(i) must be row i's cells, and
// neither refill may allocate once the storage has grown.
func TestMatrixFillReuse(t *testing.T) {
	seqs := randSeqs(9, 60, 10, 30)
	d := L1{}
	pairOver := func(s [][]float64) PairFunc {
		return func(i, j int) float64 { return d.Distance(s[i], s[j]) }
	}
	pair := pairOver(seqs)
	byRow := func(i int, cells []float64) {
		for k := range cells {
			cells[k] = pair(i, i+1+k)
		}
	}
	var m, rows Matrix
	for _, n := range []int{60, 20, 1, 0, 45, 60} {
		m.Fill(n, pairOver(seqs), MatrixOptions{Workers: 1})
		rows.FillRows(n, byRow)
		want := NewMatrix(n, pairOver(seqs), MatrixOptions{Workers: 1})
		if m.N() != want.N() || rows.N() != want.N() {
			t.Fatalf("n=%d: N=%d (FillRows %d), want %d", n, m.N(), rows.N(), want.N())
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m.At(i, j) != want.At(i, j) || rows.At(i, j) != want.At(i, j) {
					t.Fatalf("n=%d: At(%d,%d)=%v (FillRows %v), want %v", n, i, j, m.At(i, j), rows.At(i, j), want.At(i, j))
				}
			}
			if r := want.Row(i); len(r) != n-1-i || (len(r) > 0 && r[len(r)-1] != want.At(i, n-1)) {
				t.Fatalf("n=%d: Row(%d) has %d cells, want %d ending at At(%d,%d)", n, i, len(r), n-1-i, i, n-1)
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.Fill(60, pair, MatrixOptions{Workers: 1})
		rows.FillRows(60, byRow)
	})
	if allocs != 0 {
		t.Fatalf("serial refill allocates %v per run, want 0", allocs)
	}
}
