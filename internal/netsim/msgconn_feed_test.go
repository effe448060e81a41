package netsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/simtime"
)

// feedOracle is the accumulate-and-copy framing MsgConn.feed replaced, kept
// as its reference: every chunk is appended to one buffer, and each
// complete message is copied out of it.
type feedOracle struct {
	buf   []byte
	onMsg func(kind byte, payload []byte)
	abort func()
}

func (o *feedOracle) feed(data []byte) {
	o.buf = append(o.buf, data...)
	for len(o.buf) >= msgHeaderLen {
		kind := o.buf[0]
		n := int(binary.BigEndian.Uint32(o.buf[1:]))
		if n > maxMsgLen {
			o.buf = nil
			o.abort()
			return
		}
		if len(o.buf) < msgHeaderLen+n {
			return
		}
		payload := append([]byte(nil), o.buf[msgHeaderLen:msgHeaderLen+n]...)
		o.buf = o.buf[msgHeaderLen+n:]
		o.onMsg(kind, payload)
	}
}

// feedEvent is one thing a framing layer did: delivered a message, or
// aborted its connection.
type feedEvent struct {
	abort   bool
	kind    byte
	payload []byte
}

func (e feedEvent) String() string {
	if e.abort {
		return "abort"
	}
	return fmt.Sprintf("msg(kind=%d, %d bytes)", e.kind, len(e.payload))
}

// feedHarness drives a MsgConn's feed and the oracle with the same chunks
// and logs what each does. The MsgConn sits on a connection still in its
// handshake, so nothing it does reaches a wire; after an abort it is moved
// to a fresh connection, so every abort shows up in the log.
type feedHarness struct {
	m         *MsgConn
	o         *feedOracle
	got, want []feedEvent
}

func newFeedHarness() *feedHarness {
	k := simtime.NewKernel(1)
	p := newPipe(k, time.Millisecond)
	h := &feedHarness{}
	h.m = NewMsgConn(p.a.Dial(Endpoint{p.b.Addr(), 80}))
	h.m.OnMessage(func(kind byte, payload []byte) {
		h.got = append(h.got, feedEvent{kind: kind, payload: bytes.Clone(payload)})
	})
	var onClose func()
	onClose = func() {
		h.got = append(h.got, feedEvent{abort: true})
		h.m.Conn = p.a.Dial(Endpoint{p.b.Addr(), 80})
		h.m.Conn.OnClose(onClose)
	}
	h.m.Conn.OnClose(onClose)
	h.o = &feedOracle{
		onMsg: func(kind byte, payload []byte) {
			h.want = append(h.want, feedEvent{kind: kind, payload: payload})
		},
		abort: func() { h.want = append(h.want, feedEvent{abort: true}) },
	}
	return h
}

func (h *feedHarness) feed(chunk []byte) {
	h.m.feed(chunk)
	h.o.feed(chunk)
}

// check fails unless the MsgConn and the oracle did the same things.
func (h *feedHarness) check(t *testing.T, what string) {
	t.Helper()
	if len(h.got) != len(h.want) {
		t.Fatalf("%s: %d events, oracle %d\ngot  %v\nwant %v", what, len(h.got), len(h.want), h.got, h.want)
	}
	for i := range h.want {
		g, w := h.got[i], h.want[i]
		if g.abort != w.abort || g.kind != w.kind || !bytes.Equal(g.payload, w.payload) {
			t.Fatalf("%s: event %d is %v, oracle %v", what, i, g, w)
		}
	}
}

// frame builds one framed message.
func frame(kind byte, payload []byte) []byte {
	f := make([]byte, msgHeaderLen, msgHeaderLen+len(payload))
	f[0] = kind
	binary.BigEndian.PutUint32(f[1:], uint32(len(payload)))
	return append(f, payload...)
}

// feedSizes are the payload sizes the framing property test draws from:
// empty, shorter than a header, around one segment, and many segments.
var feedSizes = []int{0, 1, 2, 3, 4, 5, 6,
	MSS - 5, MSS - 4, MSS - 3, MSS - 2, MSS - 1, MSS, MSS + 1, MSS + 2, MSS + 3, MSS + 4, MSS + 5,
	100_000}

// TestMsgConnFeedMatchesOracle checks in-place framing against the
// accumulate-and-copy oracle over random streams, each cut four ways:
// random chunks from one byte to many messages, MSS-sized segments, cuts
// inside every header, and one byte at a time. A third of the streams end
// in a header whose length is over maxMsgLen, which must abort the
// connection.
func TestMsgConnFeedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 60; round++ {
		var stream []byte
		var starts []int // offset of every frame
		for i, n := 0, 1+rng.Intn(12); i < n; i++ {
			payload := make([]byte, feedSizes[rng.Intn(len(feedSizes))])
			rng.Read(payload)
			starts = append(starts, len(stream))
			stream = append(stream, frame(byte(rng.Intn(256)), payload)...)
		}
		if rng.Intn(3) == 0 {
			bad := [msgHeaderLen]byte{byte(rng.Intn(256))}
			binary.BigEndian.PutUint32(bad[1:], uint32(maxMsgLen+1+rng.Intn(1<<20)))
			starts = append(starts, len(stream))
			stream = append(stream, bad[:]...)
			stream = append(stream, make([]byte, rng.Intn(msgHeaderLen))...)
		}

		var random, segments, headers, single []int // stream offsets to cut at
		for off := 0; off < len(stream); {
			n := 1 + rng.Intn(3*MSS)
			if rng.Intn(4) == 0 {
				n = 1 + rng.Intn(8)
			}
			off += n
			random = append(random, off)
		}
		for off := MSS; off < len(stream); off += MSS {
			segments = append(segments, off)
		}
		for _, s := range starts {
			headers = append(headers, s+1+rng.Intn(msgHeaderLen-1))
		}
		for off := 1; off < len(stream); off++ {
			single = append(single, off)
		}

		for how, cuts := range map[string][]int{
			"random": random, "segments": segments, "headers": headers, "bytes": single,
		} {
			h := newFeedHarness()
			prev := 0
			for _, c := range append(cuts, len(stream)) {
				c = min(c, len(stream))
				if c > prev {
					h.feed(stream[prev:c])
					prev = c
				}
			}
			h.check(t, fmt.Sprintf("round %d, %s cuts", round, how))
		}
	}
}

// FuzzMsgConnFeed feeds arbitrary bytes, cut into chunks whose lengths come
// from cuts (no cuts: one chunk), to MsgConn.feed and to the oracle, which
// must agree on every message and every abort. The seed corpus is in
// testdata/fuzz/FuzzMsgConnFeed.
func FuzzMsgConnFeed(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		h := newFeedHarness()
		for i := 0; len(stream) > 0; i++ {
			n := len(stream)
			if len(cuts) > 0 {
				n = min(n, int(cuts[i%len(cuts)])+1)
			}
			h.feed(stream[:n])
			stream = stream[n:]
		}
		h.check(t, "fuzz")
	})
}

// TestMsgConnFeedAllocs pins the receive path's allocations: a message
// lying whole in one segment is delivered in place, and a message spanning
// segments costs one buffer however many segments carry it.
func TestMsgConnFeedAllocs(t *testing.T) {
	h := newFeedHarness()
	h.m.OnMessage(func(byte, []byte) {})

	whole := frame(3, bytes.Repeat([]byte{1}, MSS-msgHeaderLen))
	if a := testing.AllocsPerRun(100, func() { h.m.feed(whole) }); a != 0 {
		t.Errorf("a message inside one segment: %v allocs per feed, want 0", a)
	}

	big := frame(4, bytes.Repeat([]byte{2}, 100_000))
	var segs [][]byte
	for off := 0; off < len(big); off += MSS {
		segs = append(segs, big[off:min(off+MSS, len(big))])
	}
	a := testing.AllocsPerRun(20, func() {
		for _, s := range segs {
			h.m.feed(s)
		}
	})
	if a != 1 {
		t.Errorf("a message over %d segments: %v allocs, want 1", len(segs), a)
	}
	if h.m.part != nil || h.m.hdrN != 0 {
		t.Error("MsgConn keeps a buffer between messages")
	}
}

// TestMsgConnSendAllocs pins the send path's allocations: with spare
// capacity in the send buffer, framing and filling a message allocates
// nothing.
func TestMsgConnSendAllocs(t *testing.T) {
	k := simtime.NewKernel(1)
	p := newPipe(k, time.Millisecond)
	m := NewMsgConn(p.a.Dial(Endpoint{p.b.Addr(), 80})) // handshake pending: trySend emits nothing
	m.Conn.buf = make([]byte, 0, 1<<20)
	if a := testing.AllocsPerRun(50, func() { m.SendFiller(1, 1000) }); a != 0 {
		t.Errorf("SendFiller: %v allocs, want 0", a)
	}
	payload := make([]byte, 1000)
	if a := testing.AllocsPerRun(50, func() { m.Send(2, payload) }); a != 0 {
		t.Errorf("Send: %v allocs, want 0", a)
	}
	if want := 2 * 51 * (msgHeaderLen + 1000); m.Conn.Buffered() != want {
		t.Errorf("buffered %d bytes, want %d", m.Conn.Buffered(), want)
	}
}

// TestSendFillerRefusedKeepsDrawOrder pins the RNG order of a refused
// SendFiller: the n filler bytes are drawn first, then whatever an OnClose
// callback draws, whether the connection is already closed or resets now
// because the message would overflow its backlog.
func TestSendFillerRefusedKeepsDrawOrder(t *testing.T) {
	const n = 1000
	for _, tc := range []struct {
		name    string
		prepare func(c *Conn)
		closes  bool // the refusal itself runs OnClose
	}{
		{"closed", func(c *Conn) { c.Abort() }, false},
		{"backlog overflow", func(c *Conn) { c.buf = make([]byte, maxSendBacklog-n) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The twin makes the same draws as the set-up below (Dial draws
			// the ISS; prepare draws nothing), then the seed's order.
			twin := simtime.NewKernel(5)
			newPipe(twin, time.Millisecond).a.Dial(Endpoint{netip.MustParseAddr("10.0.0.2"), 80})
			twin.Fill(make([]byte, n))
			wantClose := twin.Rand().Int63()

			k := simtime.NewKernel(5)
			p := newPipe(k, time.Millisecond)
			m := NewMsgConn(p.a.Dial(Endpoint{p.b.Addr(), 80}))
			tc.prepare(m.Conn)
			var gotClose int64
			closed := false
			m.Conn.OnClose(func() { closed, gotClose = true, k.Rand().Int63() })
			before := m.Conn.Buffered()
			m.SendFiller(9, n)
			if closed != tc.closes {
				t.Fatalf("OnClose ran = %v, want %v", closed, tc.closes)
			}
			if !closed {
				gotClose = k.Rand().Int63()
			}
			if gotClose != wantClose {
				t.Fatal("the draw after a refused SendFiller does not follow its filler bytes")
			}
			if m.Conn.Buffered() != before {
				t.Fatal("refused message was buffered")
			}
		})
	}
}
