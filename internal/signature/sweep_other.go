//go:build !amd64

package signature

// useAVX2 stays false off amd64: every row takes the Go sweep. It is a
// variable, not a constant, only so the tests that flip it on amd64
// compile here too.
var useAVX2 = false

// sweepRowAVX2 sweeps no cells off amd64, leaving the row to sweepRow.
func sweepRowAVX2(cells, a, cols []float64, n, i int) int { return 0 }
