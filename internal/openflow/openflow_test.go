package openflow

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, msg Message, xid uint32) Message {
	t.Helper()
	b, err := AppendEncode(nil, msg, xid)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, gotXid, rest, err := Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotXid != xid {
		t.Errorf("xid = %d, want %d", gotXid, xid)
	}
	if len(rest) != 0 {
		t.Errorf("unexpected trailing bytes: %d", len(rest))
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	match := Match{MatchInPort: true, InPort: 3, EthSrc: 0xaabbccddeeff, EthDst: 0x112233445566, EthType: 0x0800, VlanID: 42}
	msgs := []Message{
		&Hello{},
		&EchoRequest{Data: []byte("ping")},
		&EchoReply{Data: []byte("pong")},
		&FeaturesRequest{},
		&FeaturesReply{DatapathID: 7, NumPorts: 48},
		&PacketIn{DatapathID: 1, InPort: 2, Reason: 1, Data: []byte{1, 2, 3}},
		&PacketOut{DatapathID: 1, InPort: 2, Actions: []Action{{Type: ActionOutput, Port: 5}}, Data: []byte{9}},
		&FlowMod{DatapathID: 3, Command: FlowAdd, Priority: 100, IdleTimeout: 30, Match: match,
			Actions: []Action{{Type: ActionOutput, Port: 1}, {Type: ActionSetVlan, Vlan: 7}}},
		&FlowRemoved{DatapathID: 3, Priority: 100, Match: match, Reason: 1},
		&PortStatus{DatapathID: 4, Port: 9, Reason: 2, Up: true},
		&ErrorMsg{ErrType: 1, Code: 5, Data: []byte("bad")},
	}
	for _, msg := range msgs {
		t.Run(msg.Type().String(), func(t *testing.T) {
			got := roundTrip(t, msg, 0xdeadbeef)
			if !reflect.DeepEqual(got, msg) {
				t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, msg)
			}
		})
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, _, err := Decode([]byte{1, 2, 3}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short buffer: %v", err)
	}
	b, _ := AppendEncode(nil, &Hello{}, 1)
	b[0] = 0x01 // wrong version
	if _, _, _, err := Decode(b); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	b, _ = AppendEncode(nil, &Hello{}, 1)
	b[1] = 200 // unknown type
	if _, _, _, err := Decode(b); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type: %v", err)
	}
	// Truncated body: claim a length longer than the buffer.
	b, _ = AppendEncode(nil, &EchoRequest{Data: []byte("xyz")}, 1)
	if _, _, _, err := Decode(b[:9]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated body: %v", err)
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	b1, _ := AppendEncode(nil, &Hello{}, 1)
	b2, _ := AppendEncode(nil, &EchoRequest{Data: []byte("x")}, 2)
	stream := append(append([]byte{}, b1...), b2...)
	msg, xid, rest, err := Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type() != TypeHello || xid != 1 {
		t.Errorf("first message wrong: %v %d", msg.Type(), xid)
	}
	msg2, xid2, rest2, err := Decode(rest)
	if err != nil {
		t.Fatal(err)
	}
	if msg2.Type() != TypeEchoRequest || xid2 != 2 || len(rest2) != 0 {
		t.Errorf("second message wrong: %v %d %d", msg2.Type(), xid2, len(rest2))
	}
}

func TestReadWriteMessage(t *testing.T) {
	var buf bytes.Buffer
	fm := &FlowMod{DatapathID: 9, Priority: 10, Match: Match{EthType: 0x0806},
		Actions: []Action{{Type: ActionDrop}}}
	if err := WriteMessage(&buf, fm, 77); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(&buf, &EchoRequest{Data: []byte("hb")}, 78); err != nil {
		t.Fatal(err)
	}
	m1, x1, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if x1 != 77 || !reflect.DeepEqual(m1, fm) {
		t.Errorf("stream read 1: %#v %d", m1, x1)
	}
	m2, x2, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if x2 != 78 || m2.Type() != TypeEchoRequest {
		t.Errorf("stream read 2: %v %d", m2.Type(), x2)
	}
	if _, _, err := ReadMessage(&buf); err == nil {
		t.Error("want error at stream end")
	}
}

func TestFlowModRoundTripProperty(t *testing.T) {
	f := func(dp uint64, prio, idle uint16, inPort uint32, src, dst uint64,
		ethType, vlan uint16, outPort uint32, xid uint32) bool {
		fm := &FlowMod{
			DatapathID: dp, Command: FlowAdd, Priority: prio, IdleTimeout: idle,
			Match: Match{MatchInPort: inPort%2 == 0, InPort: inPort,
				EthSrc: src & 0xffffffffffff, EthDst: dst & 0xffffffffffff,
				EthType: ethType, VlanID: vlan},
			Actions: []Action{{Type: ActionOutput, Port: outPort}},
		}
		b, err := AppendEncode(nil, fm, xid)
		if err != nil {
			return false
		}
		got, gotXid, rest, err := Decode(b)
		if err != nil || gotXid != xid || len(rest) != 0 {
			return false
		}
		return reflect.DeepEqual(got, fm)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPacketInRoundTripProperty(t *testing.T) {
	f := func(dp uint64, inPort uint32, reason uint8, data []byte, xid uint32) bool {
		if len(data) > 60000 {
			data = data[:60000]
		}
		pi := &PacketIn{DatapathID: dp, InPort: inPort, Reason: reason, Data: data}
		b, err := AppendEncode(nil, pi, xid)
		if err != nil {
			return false
		}
		got, gotXid, _, err := Decode(b)
		if err != nil || gotXid != xid {
			return false
		}
		gpi, ok := got.(*PacketIn)
		if !ok {
			return false
		}
		return gpi.DatapathID == dp && gpi.InPort == inPort && gpi.Reason == reason &&
			bytes.Equal(gpi.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeTooLarge(t *testing.T) {
	if _, err := AppendEncode(nil, &EchoRequest{Data: make([]byte, 70000)}, 1); err == nil {
		t.Error("want error for oversized message")
	}
}
