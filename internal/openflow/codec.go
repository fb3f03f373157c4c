package openflow

import "fmt"

// Codec decodes frames zero-copy into reusable per-type scratch
// messages, so the steady-state cost of a decode is zero allocations.
// Payload fields of a decoded message alias the input buffer, and its
// other fields (actions included) live in the Codec's scratch: the
// message is valid only until the Codec's next decode of the same type
// and only while the input buffer is unchanged. A Codec is not safe
// for concurrent use. Callers that need to retain a message must copy
// it out — the convenience Decode function does exactly that, for one
// allocation per message.
type Codec struct {
	// scratch holds one lazily created reusable message per wire type
	// (sized by the highest wire type the codec speaks, the role reply).
	scratch [TypeRoleReply + 1]Message
}

// NewZeroCopyCodec returns a Codec. The name carries the aliasing
// contract to the call site: decoded payloads die when the input
// buffer is refilled.
func NewZeroCopyCodec() *Codec { return &Codec{} }

// message returns the reusable scratch message for t, creating it on
// first use.
func (c *Codec) message(t MsgType) (Message, error) {
	if int(t) >= len(c.scratch) {
		return nil, fmt.Errorf("%w: %d", ErrBadType, uint8(t))
	}
	if m := c.scratch[t]; m != nil {
		return m, nil
	}
	m, err := newMessage(t)
	if err != nil {
		return nil, err
	}
	c.scratch[t] = m
	return m, nil
}

// Decode parses one framed message into the Codec's scratch for that
// type, returning the message, its xid, and any trailing bytes. The
// returned message is valid until the next Decode of the same type.
func (c *Codec) Decode(b []byte) (Message, uint32, []byte, error) {
	if len(b) < headerLen {
		return nil, 0, nil, ErrTruncated
	}
	msg, err := c.message(MsgType(b[1]))
	if err != nil {
		// Surface version errors before unknown-type errors, matching
		// the package-level Decode's header-first validation order.
		if b[0] != Version {
			return nil, 0, nil, fmt.Errorf("%w: 0x%02x", ErrBadVersion, b[0])
		}
		return nil, 0, nil, err
	}
	length, xid, err := parseHeader(b)
	if err != nil {
		return nil, 0, nil, err
	}
	if err := msg.decodeBody(b[headerLen:length], true); err != nil {
		return nil, 0, nil, err
	}
	return msg, xid, b[length:], nil
}
