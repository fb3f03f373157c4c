package ofconn

import (
	"errors"
	"fmt"
	"io"

	"sdnbugs/internal/openflow"
)

// Frame pairs a decoded message with its transaction id — the unit
// FrameReader.ReadBatch returns.
type Frame struct {
	Msg openflow.Message
	Xid uint32
}

const (
	// batchBufLen is the fixed I/O buffer size. It comfortably holds
	// two maximum-length frames, so a partial frame at the buffer tail
	// never starves the reader.
	batchBufLen = 128 << 10
	// ringSlots bounds how many frames one ReadBatch call returns. Each
	// slot owns a zero-copy Codec, so every frame in a batch decodes
	// into distinct scratch: a deliberately fixed ring, not a
	// sync.Pool, so buffer reuse is deterministic run to run.
	ringSlots = 64
)

// FrameReader drains all buffered frames per syscall: one Read fills
// the fixed buffer, then every complete frame in it is decoded without
// touching the transport again. Decoding is zero-copy — returned
// frames alias the reader's buffer and the ring's codec scratch, and
// are valid only until the next ReadBatch call. A FrameReader is not
// safe for concurrent use.
type FrameReader struct {
	r          io.Reader
	buf        []byte
	start, end int
	ring       [ringSlots]*openflow.Codec
}

// NewFrameReader wraps r with a fixed 128 KiB frame buffer.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, batchBufLen)}
}

// completeFrame returns the length of the next buffered frame, or 0 if
// the buffer holds none (or a partial one).
func (fr *FrameReader) completeFrame() int {
	avail := fr.end - fr.start
	if avail < 8 {
		return 0
	}
	b := fr.buf[fr.start:fr.end]
	length := int(uint16(b[2])<<8 | uint16(b[3]))
	if length < 8 || length > avail {
		// A lying sub-header length is surfaced at decode time; here we
		// only ask "is a whole frame present".
		if length < 8 {
			return length // forces a decode attempt, which errors
		}
		return 0
	}
	return length
}

// fill compacts the unread region to the buffer front and reads once
// from the transport. It must only run before any frame of a batch has
// been decoded — compaction moves bytes that zero-copy frames alias.
func (fr *FrameReader) fill() error {
	if fr.start > 0 {
		copy(fr.buf, fr.buf[fr.start:fr.end])
		fr.end -= fr.start
		fr.start = 0
	}
	if fr.end == len(fr.buf) {
		return fmt.Errorf("ofconn: frame buffer full without a complete frame")
	}
	n, err := fr.r.Read(fr.buf[fr.end:])
	fr.end += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	if errors.Is(err, io.EOF) && fr.end > fr.start {
		// Mid-frame EOF: the peer died between header and body.
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeNext decodes the next buffered frame using the codec in slot.
func (fr *FrameReader) decodeNext(slot int) (Frame, error) {
	length := fr.completeFrame()
	c := fr.ring[slot]
	if c == nil {
		c = openflow.NewZeroCopyCodec()
		fr.ring[slot] = c
	}
	if length < 8 {
		// Let the codec produce the canonical error for a lying header.
		length = fr.end - fr.start
	}
	msg, xid, _, err := c.Decode(fr.buf[fr.start : fr.start+length])
	if err != nil {
		return Frame{}, err
	}
	fr.start += length
	return Frame{Msg: msg, Xid: xid}, nil
}

// ReadBatch appends every buffered complete frame (reading from the
// transport until at least one is available) to dst and returns the
// extended slice. At most ringSlots frames are returned per call;
// surplus complete frames stay buffered for the next call, still
// without a syscall. The returned frames are valid only until the next
// ReadBatch call.
func (fr *FrameReader) ReadBatch(dst []Frame) ([]Frame, error) {
	for fr.completeFrame() == 0 {
		if err := fr.fill(); err != nil {
			return dst, err
		}
	}
	for slot := 0; slot < ringSlots && fr.completeFrame() > 0; slot++ {
		f, err := fr.decodeNext(slot)
		if err != nil {
			return dst, err
		}
		dst = append(dst, f)
	}
	return dst, nil
}
