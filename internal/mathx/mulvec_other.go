//go:build !amd64

package mathx

// mulVec sets dst[i] = Dot(row i, v) for every row of m.
func mulVec(m *Matrix, dst, v []float64) {
	for i := range dst {
		dst[i] = Dot(m.Row(i), v)
	}
}
