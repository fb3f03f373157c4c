package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"sdnbugs/internal/ml/pca.(*PCA).Fit":           "sdnbugs/internal/ml/pca",
		"sdnbugs/internal/mathx.Dot":                   "sdnbugs/internal/mathx",
		"sdnbugs/internal/nlp.Stem.func1":              "sdnbugs/internal/nlp",
		"sdnbugs/internal/tracker.(*Replica).refresh":  "sdnbugs/internal/tracker",
		"runtime.mallocgc":                             "runtime",
		"sdnbugs/internal/nlp/word2vec.(*Model).Train": "sdnbugs/internal/nlp/word2vec",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAggregateCountsRecursionOnce(t *testing.T) {
	const (
		fit = "sdnbugs/internal/ml/pca.(*PCA).Fit"
		dot = "sdnbugs/internal/mathx.Dot"
		gen = "sdnbugs/internal/corpus.Generate"
		ref = "sdnbugs/internal/tracker.(*Replica).refresh"
	)
	p := aggregate([]stackSample{
		// Leaf first: Dot called from a recursive Fit.
		{frames: []string{dot, fit, fit, fit, "main.main"}, seconds: 0.5},
		// Fit itself on top, recursing through Dot and back.
		{frames: []string{fit, dot, fit, "main.main"}, seconds: 0.25},
		{frames: []string{gen, "main.main"}, seconds: 0.125},
		{frames: []string{ref, ref, "net/http.HandlerFunc.ServeHTTP"}, seconds: 0.0625},
		{frames: []string{"runtime.gcBgMarkWorker"}, seconds: 1},
	})
	want := map[string]float64{"pca": 0.75, "mathx": 0.75, "corpus": 0.125}
	for m, w := range want {
		if got := p.cum[m]; got != w {
			t.Errorf("cum[%s] = %v, want %v", m, got, w)
		}
	}
	if got := p.self["mathx"]; got != 0.5 {
		t.Errorf("self[mathx] = %v, want 0.5", got)
	}
	if got := p.self["pca"]; got != 0.25 {
		t.Errorf("self[pca] = %v, want 0.25", got)
	}
	if got := p.funcCum["tracker.refresh"]; got != 0.0625 {
		t.Errorf("funcCum[tracker.refresh] = %v, want 0.0625", got)
	}
}

//go:noinline
func burnForProfile(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestParseProfileFindsHotFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burnForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var hot, total float64
	for _, s := range samples {
		total += s.seconds
		// A test binary names the package by import path, not "main".
		if slices.ContainsFunc(s.frames, func(f string) bool { return strings.HasSuffix(f, ".burnForProfile") }) {
			hot += s.seconds
		}
	}
	if hot < 0.1 || hot > total {
		t.Errorf("burnForProfile has %.3fs of %.3fs sampled; want most of 0.3s", hot, total)
	}
}

func TestProtoFieldsRejectsTruncation(t *testing.T) {
	// Field 2, length-delimited, claiming 5 bytes but holding 2.
	if err := protoFields([]byte{0x12, 0x05, 0x01, 0x02}, func(int, uint64, []byte) error { return nil }); err == nil {
		t.Error("truncated field accepted")
	}
	var got []uint64
	// Packed repeated varints 1, 300.
	if err := protoRepeated(0, []byte{0x01, 0xac, 0x02}, func(x uint64) { got = append(got, x) }); err != nil || !slices.Equal(got, []uint64{1, 300}) {
		t.Errorf("packed varints = %v, %v", got, err)
	}
}

func TestTracerSamplesAndCaps(t *testing.T) {
	tr := newTracer(4)
	now := time.Now()
	if id := tr.record("x", -1, 3, now, now); id != -1 {
		t.Errorf("unsampled request kept as span %d", id)
	}
	if id := tr.record("x", -1, 8, now, now.Add(time.Microsecond)); id != 0 {
		t.Errorf("sampled request got span %d, want 0", id)
	}
	if tr.spans[0].End-tr.spans[0].Start != 1000 {
		t.Errorf("span = %+v", tr.spans[0])
	}
	var nilTracer *tracer
	if id := nilTracer.record("x", -1, 0, now, now); id != -1 {
		t.Error("nil tracer recorded a span")
	}
}
