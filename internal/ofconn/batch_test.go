package ofconn

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"

	"sdnbugs/internal/openflow"
	"sdnbugs/internal/sdn"
)

// streamOf encodes msgs into one contiguous byte stream.
func streamOf(t *testing.T, msgs []openflow.Message) []byte {
	t.Helper()
	var buf []byte
	for i, m := range msgs {
		var err error
		buf, err = openflow.AppendEncode(buf, m, uint32(i+1))
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func batchMessages() []openflow.Message {
	return []openflow.Message{
		&openflow.PacketIn{DatapathID: 1, InPort: 2, Data: []byte("first")},
		&openflow.FlowMod{DatapathID: 1, Priority: 5,
			Actions: []openflow.Action{{Type: openflow.ActionOutput, Port: 3}}},
		&openflow.PacketIn{DatapathID: 1, InPort: 4, Data: []byte("second")},
		&openflow.EchoRequest{Data: []byte("hb")},
	}
}

// A single fill must yield every buffered frame in one ReadBatch, with
// distinct scratch per frame (two packet-ins in one batch must not
// clobber each other).
func TestFrameReaderDrainsBufferedFrames(t *testing.T) {
	msgs := batchMessages()
	fr := NewFrameReader(bytes.NewReader(streamOf(t, msgs)))
	frames, err := fr.ReadBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(msgs) {
		t.Fatalf("got %d frames, want %d", len(frames), len(msgs))
	}
	for i, f := range frames {
		if f.Xid != uint32(i+1) {
			t.Errorf("frame %d xid = %d", i, f.Xid)
		}
		if !reflect.DeepEqual(f.Msg, msgs[i]) {
			t.Errorf("frame %d = %+v, want %+v", i, f.Msg, msgs[i])
		}
	}
	if _, err := fr.ReadBatch(nil); !errors.Is(err, io.EOF) {
		t.Fatalf("after drain: %v, want EOF", err)
	}
}

// chunkReader returns its stream in fixed-size chunks, splitting
// frames across Read calls.
type chunkReader struct {
	data  []byte
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.chunk
	if n > len(r.data) {
		n = len(r.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

func TestFrameReaderReassemblesSplitFrames(t *testing.T) {
	msgs := batchMessages()
	stream := streamOf(t, msgs)
	for _, chunk := range []int{1, 3, 7, 13} {
		fr := NewFrameReader(&chunkReader{data: append([]byte(nil), stream...), chunk: chunk})
		var got []openflow.Message
		for {
			frames, err := fr.ReadBatch(nil)
			for _, f := range frames {
				// Frames die on the next ReadBatch; keep a re-encoded copy.
				b, encErr := openflow.AppendEncode(nil, f.Msg, f.Xid)
				if encErr != nil {
					t.Fatal(encErr)
				}
				m, _, _, decErr := openflow.Decode(b)
				if decErr != nil {
					t.Fatal(decErr)
				}
				got = append(got, m)
			}
			if err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatalf("chunk %d: %v", chunk, err)
				}
				break
			}
		}
		if len(got) != len(msgs) {
			t.Fatalf("chunk %d: got %d frames, want %d", chunk, len(got), len(msgs))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], msgs[i]) {
				t.Fatalf("chunk %d frame %d = %+v, want %+v", chunk, i, got[i], msgs[i])
			}
		}
	}
}

func TestFrameReaderMidFrameEOF(t *testing.T) {
	stream := streamOf(t, batchMessages())
	fr := NewFrameReader(bytes.NewReader(stream[:len(stream)-3]))
	var frames []Frame
	var err error
	for err == nil {
		frames = frames[:0]
		frames, err = fr.ReadBatch(frames)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestFrameReaderBadVersion(t *testing.T) {
	fr := NewFrameReader(bytes.NewReader([]byte{0x09, 0, 0, 8, 0, 0, 0, 1}))
	if _, err := fr.ReadBatch(nil); !errors.Is(err, openflow.ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

// More than ringSlots buffered frames must arrive over successive
// ReadBatch calls without loss.
func TestFrameReaderRingOverflow(t *testing.T) {
	var msgs []openflow.Message
	for i := 0; i < ringSlots+17; i++ {
		msgs = append(msgs, &openflow.EchoRequest{Data: []byte{byte(i)}})
	}
	fr := NewFrameReader(bytes.NewReader(streamOf(t, msgs)))
	frames, err := fr.ReadBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != ringSlots {
		t.Fatalf("first batch = %d frames, want %d", len(frames), ringSlots)
	}
	rest, err := fr.ReadBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 17 {
		t.Fatalf("second batch = %d frames, want 17", len(rest))
	}
	if got := rest[16].Msg.(*openflow.EchoRequest).Data[0]; got != byte(ringSlots+16) {
		t.Fatalf("last frame payload = %d, want %d", got, ringSlots+16)
	}
}

// Recv must consume exactly one frame: a FrameReader attached to the
// same transport afterwards must start at the next frame. The
// controller read path relies on this when it finishes the session
// handshake over a Conn and then reads punts with a FrameReader.
func TestRecvDoesNotReadAhead(t *testing.T) {
	msgs := batchMessages()[:2]
	r := bytes.NewReader(streamOf(t, msgs))
	c := New(struct {
		io.Reader
		io.Writer
	}{r, io.Discard})
	msg, xid, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if xid != 1 || !reflect.DeepEqual(msg, msgs[0]) {
		t.Fatalf("Recv = %+v xid %d, want %+v xid 1", msg, xid, msgs[0])
	}
	frames, err := NewFrameReader(r).ReadBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || frames[0].Xid != 2 || !reflect.DeepEqual(frames[0].Msg, msgs[1]) {
		t.Fatalf("FrameReader after Recv = %+v, want only %+v xid 2", frames, msgs[1])
	}
}

// Punts sent one Send at a time must reach a FrameReader attached to
// the controller's transport after the session handshake, in order and
// intact.
func TestBatchedPuntRoundTrip(t *testing.T) {
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	network := sdn.NewNetwork()
	network.AddSwitch(7, 4)
	agent := &SwitchAgent{Conn: New(sConn), Net: network, DPID: 7}
	session := &ControllerSession{Conn: New(cConn)}
	setup(t, agent, session)

	var wg sync.WaitGroup
	wg.Add(1)
	var puntErr error
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			pkt := sdn.Packet{EthSrc: 0x21, EthDst: 0x22, Payload: []byte{byte(i)}}
			if puntErr = agent.PuntPacket(1, pkt); puntErr != nil {
				return
			}
		}
	}()

	fr := NewFrameReader(cConn)
	var pis []*openflow.PacketIn
	for len(pis) < 8 {
		frames, err := fr.ReadBatch(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			pi, ok := f.Msg.(*openflow.PacketIn)
			if !ok {
				t.Fatalf("expected packet-in, got %v", f.Msg.Type())
			}
			pkt, err := sdn.DecodePacket(pi.Data)
			if err != nil {
				t.Fatal(err)
			}
			// DecodePacket copies the payload, so retaining pkt is safe.
			pis = append(pis, &openflow.PacketIn{InPort: pi.InPort, Data: sdn.EncodePacket(pkt)})
		}
	}
	wg.Wait()
	if puntErr != nil {
		t.Fatal(puntErr)
	}
	for i, pi := range pis {
		pkt, err := sdn.DecodePacket(pi.Data)
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Payload[0] != byte(i) {
			t.Fatalf("packet %d payload = %d (batch reordered or clobbered)", i, pkt.Payload[0])
		}
	}
}
