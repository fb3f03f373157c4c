package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call from benchmark code into a layer of the
// program. Req ties the spans of one request together: the experiment
// index, the punt's xid, or the HTTP request's index.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// maxSpans caps the spans kept in memory. Per-layer figures are summed
// over every call; spans are kept for every sampleEvery-th request, so
// the file shows whole requests while memory stays bounded.
const maxSpans = 1 << 17

// tracer records spans in memory and writes them out when the run ends.
type tracer struct {
	t0          time.Time
	sampleEvery int64
	spans       []span
	dropped     int
}

func newTracer(sampleEvery int64) *tracer {
	return &tracer{t0: time.Now(), sampleEvery: max(sampleEvery, 1)}
}

// record keeps a span for a sampled request and returns its id, or -1
// when the span is not kept (unsampled request, or the cap is reached).
// A nil tracer records nothing.
func (t *tracer) record(name string, parent int, req int64, start, end time.Time) int {
	if t == nil || req%t.sampleEvery != 0 {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// cpuModules names the per-module CPU figures of a traced run: module
// name → package path. Cumulative time counts a sample once per module
// on its stack, however many frames of that module it holds.
var cpuModules = map[string]string{
	"pca":      "sdnbugs/internal/ml/pca",
	"svm":      "sdnbugs/internal/ml/svm",
	"adaboost": "sdnbugs/internal/ml/adaboost",
	"dtree":    "sdnbugs/internal/ml/dtree",
	"word2vec": "sdnbugs/internal/nlp/word2vec",
	"tfidf":    "sdnbugs/internal/nlp/tfidf",
	"nmf":      "sdnbugs/internal/nlp/nmf",
	"nlp":      "sdnbugs/internal/nlp",
	"mathx":    "sdnbugs/internal/mathx",
	"corpus":   "sdnbugs/internal/corpus",
}

// cpuFuncs names per-function cumulative CPU figures.
var cpuFuncs = map[string]string{
	"tracker.refresh": "sdnbugs/internal/tracker.(*Replica).refresh",
}

// stackSample is one profile sample: its frames, leaf first, and the
// CPU time it stands for.
type stackSample struct {
	frames  []string
	seconds float64
}

// cpuProfile is a profile aggregated per module and per function.
type cpuProfile struct {
	self, cum map[string]float64 // by module name, seconds
	funcCum   map[string]float64 // by cpuFuncs key, seconds
}

// packageOf returns the import path of a fully qualified Go function
// name such as "sdnbugs/internal/ml/pca.(*PCA).Fit".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// aggregate folds samples into per-module self and cumulative time.
// Self time goes to the leaf frame's module; cumulative time goes once
// to every module (and function) on the stack, so recursion and
// mutual calls within a module are not double counted.
func aggregate(samples []stackSample) cpuProfile {
	byPkg := make(map[string]string, len(cpuModules))
	for name, pkg := range cpuModules {
		byPkg[pkg] = name
	}
	byFunc := make(map[string]string, len(cpuFuncs))
	for name, fn := range cpuFuncs {
		byFunc[fn] = name
	}
	p := cpuProfile{self: map[string]float64{}, cum: map[string]float64{}, funcCum: map[string]float64{}}
	seen := map[string]bool{}
	for _, s := range samples {
		if len(s.frames) == 0 {
			continue
		}
		if m, ok := byPkg[packageOf(s.frames[0])]; ok {
			p.self[m] += s.seconds
		}
		clear(seen)
		for _, fn := range s.frames {
			if m, ok := byPkg[packageOf(fn)]; ok && !seen[m] {
				seen[m] = true
				p.cum[m] += s.seconds
			}
			if f, ok := byFunc[fn]; ok && !seen["func:"+f] {
				seen["func:"+f] = true
				p.funcCum[f] += s.seconds
			}
		}
	}
	return p
}

// parseProfile decodes a runtime/pprof CPU profile (gzipped protobuf)
// into stack samples. Only the fields aggregation needs are read:
// samples, locations with their (inlined) lines, functions, and the
// string table.
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs       []string
		valueTypes []uint64 // string index of each value's type
		raw        []rawSample
		locFuncs   = map[uint64][]uint64{} // location id → function ids, leaf first
		funcName   = map[uint64]uint64{}   // function id → string index
	)
	err := protoFields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return protoFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					valueTypes = append(valueTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := protoFields(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return protoRepeated(v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return protoRepeated(v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			raw = append(raw, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := protoFields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return protoFields(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id, name uint64
			err := protoFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// CPU profiles carry (samples/count, cpu/nanoseconds); use the cpu one.
	vi := len(valueTypes) - 1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	out := make([]stackSample, 0, len(raw))
	for _, s := range raw {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		st := stackSample{seconds: float64(s.values[vi]) / 1e9}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				st.frames = append(st.frames, str(funcName[fid]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// protoFields walks the fields of one protobuf message. For varint
// fields v holds the value; for length-delimited fields b holds the
// bytes. Fixed-width fields are skipped.
func protoFields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := protoVarint(data)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = protoVarint(data); n == 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
			continue
		case 2:
			l, n := protoVarint(data)
			if n == 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// protoRepeated yields a repeated varint field in either encoding:
// one value per field (b == nil) or packed into b.
func protoRepeated(v uint64, b []byte, yield func(uint64)) error {
	if b == nil {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := protoVarint(b)
		if n == 0 {
			return errors.New("profile: bad packed varint")
		}
		yield(x)
		b = b[n:]
	}
	return nil
}

func protoVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
