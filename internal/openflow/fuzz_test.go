package openflow

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// seedFrames builds a corpus of valid frames (one per message type)
// plus known-nasty shapes: truncated headers, lying length fields, and
// header-declared action counts with no bytes behind them.
func seedFrames(t interface{ Fatalf(string, ...any) }) [][]byte {
	msgs := []Message{
		&Hello{},
		&ErrorMsg{ErrType: 1, Code: 2, Data: []byte("bad")},
		&EchoRequest{Data: []byte{1, 2, 3}},
		&EchoReply{Data: []byte{4, 5}},
		&FeaturesRequest{},
		&FeaturesReply{DatapathID: 7, NumPorts: 4},
		&PacketIn{DatapathID: 1, InPort: 2, Reason: 0, Data: []byte{0xde, 0xad}},
		&FlowRemoved{DatapathID: 1, Reason: 1, Match: Match{EthDst: 9}},
		&PortStatus{DatapathID: 1, Port: 3, Reason: 2, Up: true},
		&PacketOut{DatapathID: 1, InPort: 2,
			Actions: []Action{{Type: ActionOutput, Port: PortFlood}}, Data: []byte{1}},
		&FlowMod{DatapathID: 1, Command: FlowAdd, Priority: 10,
			Match:   Match{MatchInPort: true, InPort: 1, EthDst: 42},
			Actions: []Action{{Type: ActionOutput, Port: 2}}},
		&RoleRequest{Role: RoleMaster, GenerationID: 3},
		&RoleReply{Role: RoleSlave, GenerationID: 4},
	}
	var frames [][]byte
	for _, m := range msgs {
		frame, err := AppendEncode(nil, m, 77)
		if err != nil {
			t.Fatalf("encode %v: %v", m.Type(), err)
		}
		frames = append(frames, frame)
		if len(frame) > headerLen {
			frames = append(frames, frame[:len(frame)/2])
		}
	}
	// Header whose declared length is shorter than the header itself.
	lying := []byte{Version, byte(TypeHello), 0, 4, 0, 0, 0, 1}
	// Packet-out declaring 65535 actions with an empty tail.
	bomb := make([]byte, headerLen+14)
	bomb[0], bomb[1] = Version, byte(TypePacketOut)
	binary.BigEndian.PutUint16(bomb[2:4], uint16(len(bomb)))
	binary.BigEndian.PutUint64(bomb[8:16], 1)
	binary.BigEndian.PutUint32(bomb[16:20], 1)
	binary.BigEndian.PutUint16(bomb[20:22], 0xffff)
	return append(frames, lying, bomb, []byte{Version}, nil)
}

// FuzzDecodeMessage asserts the codec's contract under arbitrary
// bytes: never panic, never over-allocate from a lying length field,
// and round-trip whatever decodes cleanly.
func FuzzDecodeMessage(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, xid, rest, err := Decode(data)
		if err != nil {
			return
		}
		if msg == nil {
			t.Fatal("nil message with nil error")
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew: %d > %d", len(rest), len(data))
		}
		// A cleanly decoded message must re-encode, and the re-encoded
		// frame must decode to the same type and xid (byte identity is
		// not required: encoding canonicalizes lengths).
		frame, err := AppendEncode(nil, msg, xid)
		if err != nil {
			t.Fatalf("re-encode %v: %v", msg.Type(), err)
		}
		msg2, xid2, rest2, err := Decode(frame)
		if err != nil {
			t.Fatalf("decode(encode(%v)): %v", msg.Type(), err)
		}
		if msg2.Type() != msg.Type() || xid2 != xid || len(rest2) != 0 {
			t.Fatalf("round trip changed %v/%d -> %v/%d (rest %d)",
				msg.Type(), xid, msg2.Type(), xid2, len(rest2))
		}
		// The hot-path encoder must agree with Encode byte-for-byte,
		// and its output must survive encode -> decode -> encode with
		// byte identity (the canonical form is a fixed point).
		appended, err := AppendEncode(nil, msg, xid)
		if err != nil {
			t.Fatalf("AppendEncode %v: %v", msg.Type(), err)
		}
		if !bytes.Equal(appended, frame) {
			t.Fatalf("AppendEncode diverged from Encode for %v", msg.Type())
		}
		again, err := AppendEncode(nil, msg2, xid2)
		if err != nil {
			t.Fatalf("AppendEncode(decoded) %v: %v", msg.Type(), err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("encode->decode->encode not byte-identical for %v:\n  %x\n  %x",
				msg.Type(), frame, again)
		}
		// The zero-copy codec must agree with the allocating decoder.
		zc := NewZeroCopyCodec()
		msg3, xid3, _, err := zc.Decode(frame)
		if err != nil {
			t.Fatalf("Codec.Decode(encode(%v)): %v", msg.Type(), err)
		}
		third, err := AppendEncode(nil, msg3, xid3)
		if err != nil {
			t.Fatalf("AppendEncode(codec-decoded) %v: %v", msg.Type(), err)
		}
		if !bytes.Equal(third, frame) {
			t.Fatalf("zero-copy decode changed %v on re-encode", msg.Type())
		}
	})
}

// TestFuzzSeedCorpus runs every seed frame through the fuzz property
// directly, so the corpus is exercised even in plain `go test` runs.
func TestFuzzSeedCorpus(t *testing.T) {
	for _, frame := range seedFrames(t) {
		msg, xid, _, err := Decode(frame)
		if err != nil {
			continue
		}
		out, err := AppendEncode(nil, msg, xid)
		if err != nil {
			t.Fatalf("re-encode %v: %v", msg.Type(), err)
		}
		if !bytes.Equal(out[:headerLen], frame[:headerLen]) {
			t.Fatalf("%v: header changed on round trip", msg.Type())
		}
	}
}
