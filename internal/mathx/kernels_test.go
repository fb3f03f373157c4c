package mathx

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestAVX2Detection checks the CPUID/XGETBV probe against the flags
// the Linux kernel reports, which already account for OS support of
// the YMM state.
func TestAVX2Detection(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the probe runs on amd64 only")
	}
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/cpuinfo")
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cpuinfo unreadable: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		if want := slices.Contains(strings.Fields(val), "avx2"); hasAVX2 != want {
			t.Fatalf("hasAVX2 = %v, /proc/cpuinfo lists avx2 = %v", hasAVX2, want)
		}
		return
	}
	if err := sc.Err(); err != nil {
		t.Skipf("cpuinfo unreadable: %v", err)
	}
	t.Skip("cpuinfo has no flags line")
}

// checkSameBits fails t unless got and want hold the same bits
// element by element.
func checkSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("n=%d %s[%d] = %v (%#x), Go %v (%#x)", len(want), what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkKernels fails t unless Dot, Axpy, Rotate and PegasosStep, which
// dispatch to the AVX2 kernels on this CPU, return the bits of the
// portable Go code. u, v, w and x have one length; k holds the
// scalars: Axpy's a, Rotate's s and tau, PegasosStep's c, a and inv.
func checkKernels(t *testing.T, u, v, w, x []float64, k [3]float64) {
	t.Helper()
	n := len(u)
	if got, want := Dot(u, v), dotGo(u, v); !sameBits(got, want) {
		t.Fatalf("n=%d: Dot = %v (%#x), Go %v (%#x)",
			n, got, math.Float64bits(got), want, math.Float64bits(want))
	}

	gy, wy := Clone(v), Clone(v)
	Axpy(k[0], u, gy)
	axpyGo(k[0], u, wy)
	checkSameBits(t, "Axpy y", gy, wy)

	gx, gy := Clone(u), Clone(v)
	wx, wy := Clone(u), Clone(v)
	Rotate(gx, gy, k[0], k[1])
	rotateGo(wx, wy, k[0], k[1])
	checkSameBits(t, "Rotate x", gx, wx)
	checkSameBits(t, "Rotate y", gy, wy)

	for _, hinge := range []bool{false, true} {
		for _, avg := range []bool{false, true} {
			gw, ga := Clone(u), Clone(v)
			ww, wa := Clone(u), Clone(v)
			got := PegasosStep(gw, ga, w, x, k[0], k[1], k[2], hinge, avg)
			pegasosStep(ww, wa, w, k[0], k[1], k[2], hinge, avg)
			want := dotGo(ww, x)
			if !sameBits(got, want) {
				t.Fatalf("n=%d hinge=%v avg=%v: PegasosStep margin = %v (%#x), Go %v (%#x)",
					n, hinge, avg, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			checkSameBits(t, "PegasosStep w", gw, ww)
			checkSameBits(t, "PegasosStep avgW", ga, wa)
		}
	}
}

// randomValue returns a normal deviate scaled over many binades, so
// that the order of roundings shows, or with special set, one time in
// four, an entry of specials (±0, subnormals, ±Inf, NaN, overflow).
func randomValue(rng *rand.Rand, special bool) float64 {
	if special && rng.Intn(4) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return math.Ldexp(rng.NormFloat64(), rng.Intn(41)-20)
}

func TestKernelsMatchGo(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 kernels on this CPU: Dot, Axpy, Rotate and PegasosStep run the Go code")
	}
	rng := rand.New(rand.NewSource(1))
	vec := func(n int, special bool) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = randomValue(rng, special)
		}
		return v
	}
	lengths := []int{24, 410, 440}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, special := range []bool{false, true} {
			for rep := 0; rep < 20; rep++ {
				k := [3]float64{randomValue(rng, special), randomValue(rng, special), randomValue(rng, special)}
				checkKernels(t, vec(n, special), vec(n, special), vec(n, special), vec(n, special), k)
			}
		}
	}
	// Every entry a special, so each lane meets each pair of them.
	for _, n := range []int{7, 16, 17} {
		u, v, w, x := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range n {
			u[i] = specials[(i*7)%len(specials)]
			v[i] = specials[(i*5+3)%len(specials)]
			w[i] = specials[(i*3+1)%len(specials)]
			x[i] = specials[(i*11+2)%len(specials)]
		}
		for i := range specials {
			k := [3]float64{specials[i], specials[(i+5)%len(specials)], specials[(i+9)%len(specials)]}
			checkKernels(t, u, v, w, x, k)
		}
	}
}

// FuzzKernelsMatchGo runs checkKernels on fuzzer-chosen operands. Each
// value takes two data bytes: a special, or a ratio scaled by a power
// of two so that products round.
func FuzzKernelsMatchGo(f *testing.F) {
	f.Add(uint8(17), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 230, 3, 240, 14, 250, 9})
	f.Add(uint8(41), []byte("signed zeros, subnormals and infinities"))
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		if !hasAVX2 {
			t.Skip("no AVX2 kernels on this CPU")
		}
		if len(data) < 2 {
			return
		}
		next := 0
		value := func() float64 {
			b0, b1 := data[next%len(data)], data[(next+1)%len(data)]
			next += 2
			if b0 >= 224 {
				return specials[int(b1)%len(specials)]
			}
			return math.Ldexp(float64(int(b0)-112)/float64(b1|1), int(b1%32)-16)
		}
		n := int(size) % 48
		vecs := make([][]float64, 4)
		for i := range vecs {
			vecs[i] = make([]float64, n)
			for j := range vecs[i] {
				vecs[i][j] = value()
			}
		}
		checkKernels(t, vecs[0], vecs[1], vecs[2], vecs[3], [3]float64{value(), value(), value()})
	})
}
