package mathx

// The kernels below are implemented in kernels_amd64.s with AVX2 and
// must only run when hasAVX2 is set. Each handles the first len&^3
// elements of its first slice; the other slices must be at least as
// long.

//go:noescape
func dotLanes(a, b []float64) (s0, s1, s2, s3 float64)

//go:noescape
func axpyLanes(a float64, x, y []float64)

//go:noescape
func rotateLanes(x, y []float64, s, tau float64)

//go:noescape
func pegasosLanes(w, avgW, x, next []float64, c, a, inv float64, hinge, avg bool) (s0, s1, s2, s3 float64)

// cpuid and xgetbv are implemented in kernels_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU runs AVX2 and the OS saves the YMM
// registers; it is fixed at package init.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bit 1 is the XMM state and bit 2 the YMM upper halves.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// dotAVX2 is Dot with the four lanes summed by dotLanes; the tail
// and the combine are dotGo's.
func dotAVX2(a, b []float64) float64 {
	b = b[:len(a)]
	s0, s1, s2, s3 := dotLanes(a, b)
	n := len(a) &^ 3
	return dotFinish(s0, s1, s2, s3, a[n:], b[n:])
}

// axpyAVX2 is Axpy with the len&^3 prefix run by axpyLanes.
func axpyAVX2(a float64, x, y []float64) {
	y = y[:len(x)]
	axpyLanes(a, x, y)
	n := len(x) &^ 3
	axpyGo(a, x[n:], y[n:])
}

// rotateAVX2 is Rotate with the len&^3 prefix run by rotateLanes.
func rotateAVX2(x, y []float64, s, tau float64) {
	y = y[:len(x)]
	rotateLanes(x, y, s, tau)
	n := len(x) &^ 3
	rotateGo(x[n:], y[n:], s, tau)
}

// pegasosAVX2 is PegasosStep with the len&^3 prefix of the update and
// of the next margin's four lanes run by pegasosLanes.
func pegasosAVX2(w, avgW, x, next []float64, c, a, inv float64, hinge, avg bool) float64 {
	avgW, x, next = avgW[:len(w)], x[:len(w)], next[:len(w)]
	s0, s1, s2, s3 := pegasosLanes(w, avgW, x, next, c, a, inv, hinge, avg)
	n := len(w) &^ 3
	pegasosStep(w[n:], avgW[n:], x[n:], c, a, inv, hinge, avg)
	return dotFinish(s0, s1, s2, s3, w[n:], next[n:])
}
