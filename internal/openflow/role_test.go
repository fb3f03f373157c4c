package openflow

import (
	"encoding/binary"
	"testing"
)

func TestRoleRoundTrip(t *testing.T) {
	cases := []Message{
		&RoleRequest{Role: RoleNoChange, GenerationID: 0},
		&RoleRequest{Role: RoleMaster, GenerationID: 7},
		&RoleRequest{Role: RoleSlave, GenerationID: 1<<64 - 1},
		&RoleReply{Role: RoleEqual, GenerationID: 42},
		&RoleReply{Role: RoleMaster, GenerationID: 9},
	}
	for _, want := range cases {
		frame, err := AppendEncode(nil, want, 31)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, xid, rest, err := Decode(frame)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if xid != 31 || len(rest) != 0 {
			t.Fatalf("xid=%d rest=%d", xid, len(rest))
		}
		switch w := want.(type) {
		case *RoleRequest:
			g, ok := got.(*RoleRequest)
			if !ok || *g != *w {
				t.Fatalf("round trip: got %+v want %+v", got, w)
			}
		case *RoleReply:
			g, ok := got.(*RoleReply)
			if !ok || *g != *w {
				t.Fatalf("round trip: got %+v want %+v", got, w)
			}
		}
	}
}

func TestRoleTruncated(t *testing.T) {
	frame, err := AppendEncode(nil, &RoleRequest{Role: RoleMaster, GenerationID: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for cut := headerLen; cut < len(frame); cut++ {
		short := append([]byte(nil), frame[:cut]...)
		binary.BigEndian.PutUint16(short[2:4], uint16(cut))
		if _, _, _, err := Decode(short); err == nil {
			t.Fatalf("decoded role request truncated to %d bytes", cut)
		}
	}
}

func TestRoleCodecScratch(t *testing.T) {
	// The reusable Codec must index role types (24/25) without error —
	// a regression guard for the scratch array's size.
	c := NewZeroCopyCodec()
	frame, err := AppendEncode(nil, &RoleReply{Role: RoleMaster, GenerationID: 6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		msg, xid, rest, err := c.Decode(frame)
		if err != nil {
			t.Fatalf("codec decode: %v", err)
		}
		r, ok := msg.(*RoleReply)
		if !ok || r.Role != RoleMaster || r.GenerationID != 6 || xid != 2 || len(rest) != 0 {
			t.Fatalf("codec decode: got %+v xid=%d", msg, xid)
		}
	}
}

func TestControllerRoleString(t *testing.T) {
	for role, want := range map[ControllerRole]string{
		RoleNoChange:      "nochange",
		RoleEqual:         "equal",
		RoleMaster:        "master",
		RoleSlave:         "slave",
		ControllerRole(9): "role-9",
	} {
		if got := role.String(); got != want {
			t.Fatalf("ControllerRole(%d).String() = %q, want %q", role, got, want)
		}
	}
}

// FuzzRoleCodec holds the role/election wire messages to the same
// contract as the rest of the codec: arbitrary bytes never panic, and
// whatever decodes as a role message re-encodes to an identical value.
func FuzzRoleCodec(f *testing.F) {
	for _, m := range []Message{
		&RoleRequest{Role: RoleMaster, GenerationID: 1},
		&RoleRequest{Role: RoleNoChange},
		&RoleReply{Role: RoleSlave, GenerationID: 1 << 40},
	} {
		frame, err := AppendEncode(nil, m, 5)
		if err != nil {
			f.Fatalf("encode: %v", err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-4])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, xid, _, err := Decode(data)
		if err != nil {
			return
		}
		switch msg.(type) {
		case *RoleRequest, *RoleReply:
		default:
			return
		}
		frame, err := AppendEncode(nil, msg, xid)
		if err != nil {
			t.Fatalf("re-encode %v: %v", msg.Type(), err)
		}
		msg2, xid2, _, err := Decode(frame)
		if err != nil {
			t.Fatalf("decode(encode(%v)): %v", msg.Type(), err)
		}
		if xid2 != xid {
			t.Fatalf("xid changed: %d -> %d", xid, xid2)
		}
		switch m := msg.(type) {
		case *RoleRequest:
			if g := msg2.(*RoleRequest); *g != *m {
				t.Fatalf("role request changed: %+v -> %+v", m, g)
			}
		case *RoleReply:
			if g := msg2.(*RoleReply); *g != *m {
				t.Fatalf("role reply changed: %+v -> %+v", m, g)
			}
		}
	})
}
