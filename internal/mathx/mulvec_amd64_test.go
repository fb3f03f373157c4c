package mathx

import (
	"bufio"
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
