//go:build !race

package openflow

// Steady-state allocation gates for the hot codec tier. These run only
// without the race detector: -race instruments allocations and would
// make AllocsPerRun report false positives.

import (
	"bytes"
	"testing"
)

func TestAppendEncodeZeroAlloc(t *testing.T) {
	msgs := sampleMessages()
	buf := make([]byte, 0, 4096)
	// Warm once so any capacity growth happens outside the measured runs.
	for _, m := range msgs {
		var err error
		buf, err = AppendEncode(buf, m, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		for _, m := range msgs {
			var err error
			buf, err = AppendEncode(buf, m, 1)
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendEncode steady state allocates %.1f allocs/run, want 0", allocs)
	}
}

func TestCodecDecodeZeroAlloc(t *testing.T) {
	var frames [][]byte
	for _, m := range sampleMessages() {
		f, err := AppendEncode(nil, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	c := NewZeroCopyCodec()
	// Warm scratch messages and action capacity.
	for _, f := range frames {
		if _, _, _, err := c.Decode(f); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range frames {
			if _, _, _, err := c.Decode(f); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Codec.Decode steady state allocates %.1f allocs/run, want 0", allocs)
	}
}

// The convenience ReadMessage should be down to one allocation per
// frame (the frame buffer); it used to make two.
func TestReadMessageSingleAlloc(t *testing.T) {
	frame, err := AppendEncode(nil, &EchoRequest{Data: []byte("x")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		if _, _, err := ReadMessage(r); err != nil {
			t.Fatal(err)
		}
	})
	// One frame buffer + one message + one payload copy, plus the
	// header array escaping through the io.Reader interface call. The
	// old implementation allocated a separate header slice on top.
	if allocs > 4 {
		t.Fatalf("ReadMessage allocates %.1f allocs/run, want <= 4", allocs)
	}
}
