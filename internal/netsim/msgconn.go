package netsim

import (
	"encoding/binary"
	"fmt"
)

// MsgConn frames tagged messages over a TCP connection: a 1-byte type, a
// 4-byte big-endian length, then the payload. The simulated app protocols
// (Facebook API, YouTube media, HTTP-ish web) all use this framing; the
// payload bytes are deterministic pseudo-random filler so RLC PDU head bytes
// are diverse (which the long-jump mapping relies on).
//
// A payload is copied at most once on each side. A sender writes the
// framed message straight into the connection's send buffer. A receiver
// hands a message that lies whole inside one delivered segment to the
// callback in place; only a message that spans segments is assembled, in
// one buffer of its exact framed size that is dropped after delivery.
type MsgConn struct {
	Conn *Conn

	// hdr collects a frame header split across segments; hdrN counts the
	// bytes it holds.
	hdr  [msgHeaderLen]byte
	hdrN int
	// part assembles a framed message that spans segments: cap is its
	// framed size, len the bytes received so far. Nil between messages.
	part  []byte
	onMsg func(kind byte, payload []byte)
}

const msgHeaderLen = 5

// maxMsgLen bounds a single framed message (sanity check against stream
// desync bugs).
const maxMsgLen = 64 << 20

// NewMsgConn wraps an established or connecting TCP connection.
func NewMsgConn(c *Conn) *MsgConn {
	m := &MsgConn{Conn: c}
	c.OnReceive(m.feed)
	return m
}

// OnMessage registers the message callback. The payload it gets is
// read-only and valid only until the callback returns: it may alias the
// peer's send buffer or a reassembly buffer, so a callback copies whatever
// it keeps.
func (m *MsgConn) OnMessage(fn func(kind byte, payload []byte)) { m.onMsg = fn }

// Send frames and sends one message.
func (m *MsgConn) Send(kind byte, payload []byte) {
	frame, ok := m.reserve(kind, len(payload))
	if !ok {
		m.Conn.refuse()
		return
	}
	copy(frame[msgHeaderLen:], payload)
	m.Conn.trySend()
}

// SendFiller sends a message whose payload is n deterministic pseudo-random
// bytes derived from the connection's kernel RNG. The bytes are drawn even
// when the connection refuses the message, and before the refusal can run
// OnClose callbacks that draw too, so the RNG stream does not depend on
// whether the message was taken.
func (m *MsgConn) SendFiller(kind byte, n int) {
	k := m.Conn.stack.k
	frame, ok := m.reserve(kind, n)
	if !ok {
		k.Fill(make([]byte, n))
		m.Conn.refuse()
		return
	}
	k.Fill(frame[msgHeaderLen:])
	m.Conn.trySend()
}

// reserve claims a framed message of an n-byte payload at the tail of the
// send buffer and writes its header; the caller fills the payload.
func (m *MsgConn) reserve(kind byte, n int) ([]byte, bool) {
	if n > maxMsgLen {
		panic(fmt.Sprintf("netsim: message of %d bytes exceeds limit", n))
	}
	frame, ok := m.Conn.reserve(msgHeaderLen + n)
	if ok {
		frame[0] = kind
		binary.BigEndian.PutUint32(frame[1:], uint32(n))
	}
	return frame, ok
}

// feed consumes in-order stream bytes and delivers every message they
// complete, in order.
func (m *MsgConn) feed(data []byte) {
	for len(data) > 0 {
		if m.part != nil {
			k := copy(m.part[len(m.part):cap(m.part)], data)
			m.part = m.part[:len(m.part)+k]
			data = data[k:]
			if len(m.part) < cap(m.part) {
				return
			}
			frame := m.part
			m.part = nil
			m.deliver(frame)
			continue
		}
		if m.hdrN > 0 || len(data) < msgHeaderLen {
			k := copy(m.hdr[m.hdrN:], data)
			m.hdrN += k
			data = data[k:]
			if m.hdrN < msgHeaderLen {
				return
			}
			m.hdrN = 0
			size, ok := m.frameSize(m.hdr[:])
			if !ok {
				return
			}
			if size == msgHeaderLen {
				m.deliver(m.hdr[:])
				continue
			}
			m.part = append(make([]byte, 0, size), m.hdr[:]...)
			continue
		}
		size, ok := m.frameSize(data)
		if !ok {
			return
		}
		if len(data) < size {
			m.part = append(make([]byte, 0, size), data...)
			return
		}
		m.deliver(data[:size])
		data = data[size:]
	}
}

// frameSize returns the framed size a header announces. A length over
// maxMsgLen means the stream desynced (a corrupt framed length): the
// connection is unrecoverable, so feed resets it and lets the app-level
// retry logic reconnect rather than crashing the simulation.
func (m *MsgConn) frameSize(hdr []byte) (int, bool) {
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if n > maxMsgLen {
		m.Conn.Abort()
		return 0, false
	}
	return msgHeaderLen + n, true
}

func (m *MsgConn) deliver(frame []byte) {
	if m.onMsg != nil {
		m.onMsg(frame[0], frame[msgHeaderLen:])
	}
}
