//go:build !amd64

package mathx

// mulVec sets dst[i] = Dot(row i, v) for every row of m.
func mulVec(m *Matrix, dst, v []float64) { mulVecRows(m, dst, v) }
