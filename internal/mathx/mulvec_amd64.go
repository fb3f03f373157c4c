package mathx

// dotLanes4 accumulates the four Dot lanes of a0·b into out[0:4], of
// a1·b into out[4:8], of a2·b into out[8:12] and of a3·b into
// out[12:16], over the first len(b)&^3 elements; every row must be at
// least len(b) long. It is implemented in mulvec_amd64.s with AVX2
// and must only run when hasAVX2 is set.
//
//go:noescape
func dotLanes4(a0, a1, a2, a3, b []float64, out *[16]float64)

// cpuid and xgetbv are implemented in mulvec_amd64.s.
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

// mulVec sets dst[i] = Dot(row i, v) for every row of m. With AVX2 it
// runs four rows per dotLanes4 pass; the Go code adds each row's
// len%4 tail and combines the lanes exactly as Dot does, and the
// rows%4 rows left over run Dot itself. Without AVX2 it runs the
// portable mulVecRows.
func mulVec(m *Matrix, dst, v []float64) {
	if !hasAVX2 {
		mulVecRows(m, dst, v)
		return
	}
	var lanes [16]float64
	tail := len(v) &^ 3
	i := 0
	for ; i+4 <= m.rows; i += 4 {
		r0 := m.data[i*m.cols : (i+1)*m.cols]
		r1 := m.data[(i+1)*m.cols : (i+2)*m.cols]
		r2 := m.data[(i+2)*m.cols : (i+3)*m.cols]
		r3 := m.data[(i+3)*m.cols : (i+4)*m.cols]
		dotLanes4(r0, r1, r2, r3, v, &lanes)
		dst[i] = dotFinish(lanes[0], lanes[1], lanes[2], lanes[3], r0[tail:], v[tail:])
		dst[i+1] = dotFinish(lanes[4], lanes[5], lanes[6], lanes[7], r1[tail:], v[tail:])
		dst[i+2] = dotFinish(lanes[8], lanes[9], lanes[10], lanes[11], r2[tail:], v[tail:])
		dst[i+3] = dotFinish(lanes[12], lanes[13], lanes[14], lanes[15], r3[tail:], v[tail:])
	}
	for ; i < m.rows; i++ {
		dst[i] = Dot(m.Row(i), v)
	}
}
