package mathx

// dotLanes2 accumulates the four Dot lanes of a0·b into out[0:4] and
// of a1·b into out[4:8], over the first len(b)&^3 elements; a0 and a1
// must be at least len(b) long. It is implemented in mulvec_amd64.s.
//
//go:noescape
func dotLanes2(a0, a1, b []float64, out *[8]float64)

// mulVec sets dst[i] = Dot(row i, v) for every row of m, two rows per
// dotLanes2 pass; the Go code adds each row's len%4 tail and combines
// the lanes exactly as Dot does. An odd last row runs Dot itself.
func mulVec(m *Matrix, dst, v []float64) {
	var lanes [8]float64
	tail := len(v) &^ 3
	i := 0
	for ; i+2 <= m.rows; i += 2 {
		r0 := m.data[i*m.cols : (i+1)*m.cols]
		r1 := m.data[(i+1)*m.cols : (i+2)*m.cols]
		dotLanes2(r0, r1, v, &lanes)
		dst[i] = dotFinish(lanes[0], lanes[1], lanes[2], lanes[3], r0[tail:], v[tail:])
		dst[i+1] = dotFinish(lanes[4], lanes[5], lanes[6], lanes[7], r1[tail:], v[tail:])
	}
	if i < m.rows {
		dst[i] = Dot(m.Row(i), v)
	}
}
