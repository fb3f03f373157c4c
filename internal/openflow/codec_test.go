package openflow

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func sampleMessages() []Message {
	return []Message{
		&Hello{},
		&EchoRequest{Data: []byte("ping-payload")},
		&EchoReply{Data: []byte("pong")},
		&FeaturesRequest{},
		&FeaturesReply{DatapathID: 0xabcdef01, NumPorts: 48},
		&PacketIn{DatapathID: 7, InPort: 3, Reason: 1, Data: []byte("raw-packet-bytes")},
		&PacketOut{DatapathID: 7, InPort: 2, Actions: []Action{{Type: ActionOutput, Port: 9}}, Data: []byte("payload")},
		&FlowMod{
			DatapathID: 7, Command: FlowAdd, Priority: 100, IdleTimeout: 30,
			Match:   Match{MatchInPort: true, InPort: 1, EthDst: 0x0a0b0c0d0e0f, EthType: 0x0800, VlanID: 12},
			Actions: []Action{{Type: ActionOutput, Port: 2}, {Type: ActionSetVlan, Vlan: 42}},
		},
		&FlowRemoved{DatapathID: 7, Priority: 100, Match: Match{EthSrc: 0x1234}, Reason: 1},
		&PortStatus{DatapathID: 7, Port: 4, Reason: 2, Up: true},
		&ErrorMsg{ErrType: 1, Code: 5, Data: []byte("bad flow-mod")},
	}
}

// AppendEncode appends the same frame after existing bytes as into an
// empty buffer, and leaves those bytes intact.
func TestAppendEncodeAfterPrefix(t *testing.T) {
	for _, msg := range sampleMessages() {
		want, err := AppendEncode(nil, msg, 77)
		if err != nil {
			t.Fatalf("AppendEncode(%v): %v", msg.Type(), err)
		}
		prefix := []byte("prefix")
		appended, err := AppendEncode(append([]byte(nil), prefix...), msg, 77)
		if err != nil {
			t.Fatalf("AppendEncode with prefix (%v): %v", msg.Type(), err)
		}
		if !bytes.Equal(appended[:len(prefix)], prefix) || !bytes.Equal(appended[len(prefix):], want) {
			t.Fatalf("AppendEncode(%v) with prefix corrupted frame", msg.Type())
		}
	}
}

func TestAppendEncodeOversizedLeavesDst(t *testing.T) {
	dst := []byte("keepme")
	big := &PacketOut{Data: make([]byte, MaxFrameLen)}
	out, err := AppendEncode(dst, big, 1)
	if !errors.Is(err, ErrOversized) {
		t.Fatalf("err = %v, want ErrOversized", err)
	}
	if string(out) != "keepme" {
		t.Fatalf("dst not truncated back on error: %q", out)
	}
}

// A recycled scratch message must not leak previous contents: a
// shorter payload or action list decoded by the same Codec truncates,
// never retains (takeActions reuses the scratch slice).
func TestCodecDecodeReusedScratchTruncates(t *testing.T) {
	c := NewZeroCopyCodec()
	decode := func(msg Message, xid uint32) Message {
		t.Helper()
		frame, err := AppendEncode(nil, msg, xid)
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, err := c.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	decode(&PacketIn{DatapathID: 1, Data: []byte("a-long-payload")}, 1)
	pi := decode(&PacketIn{DatapathID: 2, Data: []byte("s")}, 2).(*PacketIn)
	if string(pi.Data) != "s" || pi.DatapathID != 2 {
		t.Fatalf("reused scratch retained stale state: %+v", pi)
	}
	decode(&FlowMod{Actions: []Action{{Type: ActionOutput, Port: 1}, {Type: ActionDrop}}}, 3)
	fm := decode(&FlowMod{}, 4).(*FlowMod)
	if len(fm.Actions) != 0 {
		t.Fatalf("reused scratch retained stale actions: %+v", fm.Actions)
	}
}

func TestCodecDecodeAllTypes(t *testing.T) {
	t.Run("zero-copy", func(t *testing.T) {
		c := NewZeroCopyCodec()
		for _, msg := range sampleMessages() {
			frame, err := AppendEncode(nil, msg, 55)
			if err != nil {
				t.Fatalf("AppendEncode(%v): %v", msg.Type(), err)
			}
			got, xid, rest, err := c.Decode(frame)
			if err != nil {
				t.Fatalf("Codec.Decode(%v): %v", msg.Type(), err)
			}
			if xid != 55 || len(rest) != 0 {
				t.Fatalf("Codec.Decode(%v): xid=%d rest=%d", msg.Type(), xid, len(rest))
			}
			if !reflect.DeepEqual(got, msg) {
				t.Fatalf("Codec.Decode(%v) = %+v, want %+v", msg.Type(), got, msg)
			}
		}
	})
}

// Codec decodes must alias the input buffer; the allocating Decode
// must not.
func TestCodecAliasing(t *testing.T) {
	frame, err := AppendEncode(nil, &PacketIn{DatapathID: 1, InPort: 2, Data: []byte("alias-me")}, 9)
	if err != nil {
		t.Fatal(err)
	}

	zc := NewZeroCopyCodec()
	msg, _, _, err := zc.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	pi := msg.(*PacketIn)
	frame[len(frame)-1] = 'X'
	if pi.Data[len(pi.Data)-1] != 'X' {
		t.Fatal("zero-copy decode did not alias the input buffer")
	}
	frame[len(frame)-1] = 'e'

	msg, _, _, err = Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	pi = msg.(*PacketIn)
	frame[len(frame)-1] = 'X'
	if pi.Data[len(pi.Data)-1] == 'X' {
		t.Fatal("allocating decode aliased the input buffer")
	}
}

func TestCodecDecodeErrors(t *testing.T) {
	c := NewZeroCopyCodec()
	if _, _, _, err := c.Decode([]byte{Version, 0, 0}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short frame: %v", err)
	}
	bad := []byte{0x01, 0, 0, 8, 0, 0, 0, 0}
	if _, _, _, err := c.Decode(bad); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
	unknown := []byte{Version, 99, 0, 8, 0, 0, 0, 0}
	if _, _, _, err := c.Decode(unknown); !errors.Is(err, ErrBadType) {
		t.Fatalf("unknown type: %v", err)
	}
}
