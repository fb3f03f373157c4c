//go:build !amd64

package mathx

// Only amd64 has vector kernels; every other architecture runs the
// portable Go loops. The *AVX2 functions exist so that the dispatch
// and the tests compile everywhere; they are never reached.
const hasAVX2 = false

func dotAVX2(a, b []float64) float64 { return dotGo(a, b) }

func axpyAVX2(a float64, x, y []float64) { axpyGo(a, x, y) }

func rotateAVX2(x, y []float64, s, tau float64) { rotateGo(x, y, s, tau) }

func pegasosAVX2(w, avgW, x, next []float64, c, a, inv float64, hinge, avg bool) float64 {
	pegasosStep(w, avgW, x, c, a, inv, hinge, avg)
	return dotGo(w, next)
}
