package signature

// useAVX2 reports whether fillPatternRow sweeps with the AVX2 kernel: set
// once from CPUID and XGETBV, never by configuration. Tests flip it to
// compare the kernel with the Go sweep.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 (CPUID leaf 7, EBX bit 5)
// and the OS saves the YMM registers (CPUID leaf 1 OSXSAVE and AVX, and
// XCR0 bits 1 and 2).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsaveAVX = 1<<27 | 1<<28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsaveAVX != osxsaveAVX {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// sweepRowAVX2 sweeps the leading multiple of four of cells with the AVX2
// kernel and returns how many cells it swept. It indexes the kernel's
// last column read here, so a bad call panics in Go instead of reading
// out of bounds; the kernel writes exactly the swept cells.
func sweepRowAVX2(cells, a, cols []float64, n, i int) int {
	m4 := len(cells) &^ 3
	if m4 == 0 || len(a) == 0 {
		return m4
	}
	_ = cols[(len(a)-1)*n+i+m4]
	sweepRow4(&cells[0], &a[0], len(a), &cols[i+1], n, m4)
	return m4
}

//go:noescape
func sweepRow4(cells, a *float64, na int, cols *float64, stride, m4 int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
