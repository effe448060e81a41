package netsim

import (
	"slices"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// TCP tuning constants. MSS is chosen so a full-sized segment plus headers
// is a typical 1440-byte IP packet.
const (
	MSS          = 1400
	initCwndSegs = 10
	// recvWindow caps the sender's effective window, like a 2014 Android
	// tcp_rmem maximum. It matters for Finding 7: the window ceiling keeps
	// cwnd below a deep shaper queue (3G throttling stays smooth and nearly
	// drop-free) but cannot protect against a shallow policer bucket (LTE
	// throttling stays bursty with heavy retransmissions).
	recvWindow     = 128 << 10 // bytes; window scaling is implied, not on the wire
	minRTO         = 200 * time.Millisecond
	maxRTO         = 60 * time.Second
	initialRTO     = 1 * time.Second
	dupAckThresh   = 3
	advertisedWnd  = 0xffff // what goes in the 16-bit header field
	maxSendBacklog = 64 << 20
)

type connState int

const (
	stClosed connState = iota
	stSynSent
	stSynRcvd
	stEstablished
	stFinWait   // we sent FIN, waiting for its ACK (and possibly peer FIN)
	stCloseWait // peer sent FIN, we have not closed yet
	stLastAck   // peer closed, we sent FIN, waiting for final ACK
	stDone
)

// Conn is one TCP connection endpoint. All methods must be called from the
// kernel goroutine.
type Conn struct {
	stack *Stack
	key   FlowKey // local -> remote
	state connState

	// Send side. buf holds the byte stream from sndUna onward: an unacked
	// prefix of length (sndNxt-sndUna) followed by unsent data.
	buf      []byte
	iss      uint32
	sndUna   uint32
	sndNxt   uint32
	cwnd     float64
	ssthresh float64
	rwnd     int
	dupAcks  int
	// retransmit state
	rtoTimer    simtime.Event
	rto         time.Duration
	srtt        time.Duration
	rttvar      time.Duration
	sampleSeq   uint32 // end seq whose ACK yields an RTT sample (0 = none pending)
	sampleStart uint32 // start seq of the sampled segment
	sampleAt    simtime.Time
	// recover marks the pre-rollback sndNxt after an RTO: segments below it
	// are go-back-N retransmissions (not RTT-sampled, counted as retx).
	recover    uint32
	retxCount  int  // total segments retransmitted (exposed for tests)
	closeAfter bool // app closed; send FIN once buffer drains

	// Receive side.
	irs    uint32
	rcvNxt uint32
	ooo    map[uint32][]byte

	// App callbacks.
	onEstablished func()
	onRecv        func([]byte)
	onPeerClose   func()
	onClose       func()
	established   bool

	// Observability. obsID is the correlation ID linking this connection's
	// trace events to the user action that opened it (the trace scope at
	// connection creation); connSpan covers SYN to established on the
	// client side.
	obsID    uint64
	connSpan obs.Span
}

func newConn(s *Stack, local, remote Endpoint) *Conn {
	iss := uint32(s.k.Rand().Int63()) | 1
	return &Conn{
		stack:    s,
		key:      FlowKey{Src: local, Dst: remote, Proto: ProtoTCP},
		iss:      iss,
		sndUna:   iss,
		sndNxt:   iss,
		recover:  iss,
		cwnd:     initCwndSegs * MSS,
		ssthresh: 1 << 30,
		rwnd:     recvWindow,
		rto:      initialRTO,
		ooo:      make(map[uint32][]byte),
	}
}

// Local and Remote return the connection endpoints.
func (c *Conn) Local() Endpoint  { return c.key.Src }
func (c *Conn) Remote() Endpoint { return c.key.Dst }

// OnEstablished registers a callback for handshake completion.
func (c *Conn) OnEstablished(fn func()) {
	c.onEstablished = fn
	if c.established && fn != nil {
		fn()
	}
}

// OnReceive registers the in-order data callback. The slice it gets is
// read-only and valid only until the callback returns: it may alias the
// peer's send buffer, so a callback copies whatever it keeps.
func (c *Conn) OnReceive(fn func([]byte)) { c.onRecv = fn }

// OnPeerClose registers a callback for the peer's FIN.
func (c *Conn) OnPeerClose(fn func()) { c.onPeerClose = fn }

// OnClose registers a callback for full teardown of the connection.
func (c *Conn) OnClose(fn func()) { c.onClose = fn }

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.established }

// Retransmits returns the number of segments this endpoint retransmitted.
func (c *Conn) Retransmits() int { return c.retxCount }

// Outstanding returns unacknowledged bytes in flight.
func (c *Conn) Outstanding() int { return int(c.sndNxt - c.sndUna) }

// Buffered returns bytes accepted from the app but not yet acknowledged.
func (c *Conn) Buffered() int { return len(c.buf) }

// connect starts the client-side handshake.
func (c *Conn) connect() {
	if tr := c.stack.o.tr; tr != nil {
		c.obsID = tr.Scope()
		if c.obsID == 0 {
			c.obsID = tr.NewID() // background flow with no user action in scope
		}
		c.connSpan = tr.Start(obs.LayerTransport, "tcp:connect", c.obsID,
			obs.Attr{Key: "laddr", Val: c.key.Src.String()},
			obs.Attr{Key: "raddr", Val: c.key.Dst.String()})
	}
	c.stack.o.connects.Inc()
	c.state = stSynSent
	c.sndNxt = c.iss + 1 // SYN consumes one sequence number
	c.emit(&Packet{Flags: FlagSYN, Seq: c.iss})
	c.armRTO()
}

// acceptSYN handles the first SYN at a listener-created connection.
func (c *Conn) acceptSYN(p *Packet) {
	c.obsID = c.stack.o.tr.Scope() // correlate server-side events too
	c.state = stSynRcvd
	c.irs = p.Seq
	c.rcvNxt = p.Seq + 1
	c.sndNxt = c.iss + 1
	c.emit(&Packet{Flags: FlagSYN | FlagACK, Seq: c.iss, Ack: c.rcvNxt})
	c.armRTO()
}

// Send queues stream data for transmission. Data sent before the handshake
// completes is buffered.
func (c *Conn) Send(data []byte) {
	b, ok := c.reserve(len(data))
	if !ok {
		c.refuse()
		return
	}
	copy(b, data)
	c.trySend()
}

// reserve extends the send buffer by n bytes and returns them for the
// caller to fill in place before it calls trySend, so a message is written
// once, straight where its segments will alias it. The bytes sit past the
// old len, which no emitted segment covers (see trySend). ok is false, and
// nothing changes, when the connection takes no more data; the caller then
// calls refuse.
func (c *Conn) reserve(n int) (b []byte, ok bool) {
	if c.state == stDone || c.closeAfter || len(c.buf)+n > maxSendBacklog {
		return nil, false
	}
	l := len(c.buf)
	c.buf = slices.Grow(c.buf, n)[:l+n]
	return c.buf[l:], true
}

// refuse finishes a send that reserve turned down. A closed or closing
// connection drops the data. An open one refused it because its backlog
// would overflow: the flow never drained (e.g. the path is blackholed under
// fault injection), so reset the connection instead of growing without
// bound; the app's OnClose callback sees the failure and can retry.
func (c *Conn) refuse() {
	if c.state != stDone && !c.closeAfter {
		c.Abort()
	}
}

// Close closes the sending direction once buffered data drains; the
// connection fully closes when both directions are done.
func (c *Conn) Close() {
	if c.state == stDone || c.closeAfter {
		return
	}
	c.closeAfter = true
	c.trySend()
}

// Abort sends RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.state == stDone {
		return
	}
	c.stack.o.aborts.Inc()
	c.emit(&Packet{Flags: FlagRST | FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt})
	c.teardown()
}

func (c *Conn) teardown() {
	if c.connSpan.Active() {
		// Connection died before the handshake completed.
		c.connSpan.Attr("failed", "true")
		c.connSpan.End()
	}
	c.state = stDone
	c.rtoTimer.Cancel()
	c.rtoTimer = simtime.Event{}
	c.stack.forget(c)
	if c.onClose != nil {
		c.onClose()
	}
}

// emit fills in addressing and sends a segment.
func (c *Conn) emit(p *Packet) {
	p.Src = c.key.Src
	p.Dst = c.key.Dst
	p.Proto = ProtoTCP
	p.Window = advertisedWnd
	if p.Flags&FlagSYN == 0 {
		p.Flags |= FlagACK
		p.Ack = c.rcvNxt
	}
	c.stack.send(p)
}

// sentUnsent returns how many queued bytes are already in flight.
func (c *Conn) sentUnsent() (inFlight, unsent int) {
	inFlight = int(c.sndNxt - c.sndUna)
	// The FIN consumes a sequence number but no buffer byte; exclude it.
	if c.finInFlight() {
		inFlight--
	}
	return inFlight, len(c.buf) - inFlight
}

func (c *Conn) finInFlight() bool {
	return (c.state == stFinWait || c.state == stLastAck) && c.sndNxt > c.sndUna+uint32(len(c.buf))
}

// trySend pushes as much data as the congestion and receive windows allow,
// then a FIN if the app has closed and the buffer is empty.
func (c *Conn) trySend() {
	if c.state != stEstablished && c.state != stCloseWait {
		return
	}
	wnd := int(c.cwnd)
	if c.rwnd < wnd {
		wnd = c.rwnd
	}
	inFlight, unsent := c.sentUnsent()
	for unsent > 0 && inFlight < wnd {
		n := unsent
		if n > MSS {
			n = MSS
		}
		if n > wnd-inFlight {
			n = wnd - inFlight
		}
		if n <= 0 {
			break
		}
		off := inFlight
		// Zero-copy: the segment aliases the send buffer. Safe because the
		// buffer's backing array is only ever written past len (reserve)
		// and consumed by forward reslicing (ACKs) — emitted bytes are never
		// overwritten — and every consumer (RLC head copy, wire marshal,
		// receive-side reassembly) copies what it keeps past its callback.
		seg := c.buf[off : off+n : off+n]
		seq := c.sndNxt
		c.emit(&Packet{Flags: FlagPSH, Seq: seq, Payload: seg})
		c.sndNxt += uint32(n)
		inFlight += n
		unsent -= n
		if seqLT(seq, c.recover) {
			// Go-back-N retransmission after an RTO rollback.
			c.noteRetx(seq)
		} else if c.sampleSeq == 0 {
			c.sampleSeq = seq + uint32(n)
			c.sampleStart = seq
			c.sampleAt = c.stack.k.Now()
		}
		c.armRTO()
	}
	if c.closeAfter && unsent == 0 && !c.finInFlight() && c.state != stLastAck && c.state != stFinWait {
		// Send FIN.
		if c.state == stCloseWait {
			c.state = stLastAck
		} else {
			c.state = stFinWait
		}
		c.emit(&Packet{Flags: FlagFIN, Seq: c.sndNxt})
		c.sndNxt++
		c.armRTO()
	}
}

func (c *Conn) armRTO() {
	c.rtoTimer.Cancel()
	c.rtoTimer = c.stack.k.After(c.rto, c.onRTO)
}

func (c *Conn) disarmRTO() {
	c.rtoTimer.Cancel()
	c.rtoTimer = simtime.Event{}
}

// onRTO handles a retransmission timeout.
func (c *Conn) onRTO() {
	c.rtoTimer = simtime.Event{}
	if c.state == stDone {
		return
	}
	if c.sndNxt == c.sndUna {
		return // nothing outstanding
	}
	c.stack.o.rto.Inc()
	if tr := c.stack.o.tr; tr != nil {
		tr.Instant(obs.LayerTransport, "tcp:rto", c.obsID,
			obs.Attr{Key: "laddr", Val: c.key.Src.String()},
			obs.Attr{Key: "rto", Val: c.rto.String()})
	}
	switch c.state {
	case stSynSent:
		c.emit(&Packet{Flags: FlagSYN, Seq: c.iss})
		c.noteRetx(c.iss)
	case stSynRcvd:
		c.emit(&Packet{Flags: FlagSYN | FlagACK, Seq: c.iss, Ack: c.rcvNxt})
		c.noteRetx(c.iss)
	default:
		// Multiplicative decrease, then go-back-N: roll sndNxt back to
		// sndUna so the whole outstanding window is retransmitted as the
		// window reopens. Without this, a burst of queue-overflow drops
		// (one hole per RTO, exponential backoff) starves the connection.
		flight := float64(c.sndNxt - c.sndUna)
		c.ssthresh = flight / 2
		if c.ssthresh < 2*MSS {
			c.ssthresh = 2 * MSS
		}
		c.cwnd = MSS
		dataInFlight := int(c.sndNxt - c.sndUna)
		if c.finInFlight() {
			dataInFlight--
		}
		if dataInFlight > 0 {
			if seqLT(c.recover, c.sndNxt) {
				c.recover = c.sndNxt
			}
			c.sndNxt = c.sndUna
			c.sampleSeq = 0 // everything outstanding will be retransmitted
			if c.state == stFinWait || c.state == stLastAck {
				// The FIN will be re-sent by trySend after the data drains.
				c.closeAfter = true
				if c.state == stLastAck {
					c.state = stCloseWait
				} else {
					c.state = stEstablished
				}
			}
			c.trySend() // sends one MSS (cwnd was reset)
		} else {
			c.retransmitFirst() // FIN-only retransmission
			c.noteRetx(c.sndNxt - 1)
		}
	}
	c.cancelSampleIfRetransmitted()
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.armRTO()
}

// retransmitFirst resends the earliest unacknowledged segment (or the FIN).
func (c *Conn) retransmitFirst() {
	dataInFlight := int(c.sndNxt - c.sndUna)
	if c.finInFlight() {
		dataInFlight--
	}
	if dataInFlight <= 0 {
		if c.finInFlight() {
			c.emit(&Packet{Flags: FlagFIN, Seq: c.sndNxt - 1})
		}
		return
	}
	n := dataInFlight
	if n > MSS {
		n = MSS
	}
	seg := c.buf[0:n:n] // zero-copy; see trySend
	c.emit(&Packet{Flags: FlagPSH, Seq: c.sndUna, Payload: seg})
}

// input processes an arriving segment.
func (c *Conn) input(p *Packet) {
	if c.state == stDone {
		return
	}
	if p.Flags&FlagRST != 0 {
		c.teardown()
		return
	}
	switch c.state {
	case stSynSent:
		if p.Flags&FlagSYN != 0 && p.Flags&FlagACK != 0 && p.Ack == c.sndNxt {
			c.irs = p.Seq
			c.rcvNxt = p.Seq + 1
			c.sndUna = p.Ack
			c.state = stEstablished
			c.disarmRTO()
			c.rto = initialRTO
			c.emit(&Packet{Flags: 0, Seq: c.sndNxt}) // pure ACK
			c.becomeEstablished()
			c.trySend()
		}
		return
	case stSynRcvd:
		if p.Flags&FlagACK != 0 && p.Ack == c.sndNxt {
			c.sndUna = p.Ack
			c.state = stEstablished
			c.disarmRTO()
			c.rto = initialRTO
			c.becomeEstablished()
			c.trySend()
			// Fall through: the ACK may carry data.
		} else if p.Flags&FlagSYN != 0 {
			// Duplicate SYN: re-ACK.
			c.emit(&Packet{Flags: FlagSYN | FlagACK, Seq: c.iss, Ack: c.rcvNxt})
			return
		} else {
			return
		}
	}

	if p.Flags&FlagACK != 0 {
		c.processAck(p)
	}
	if len(p.Payload) > 0 || p.Flags&FlagFIN != 0 {
		c.processData(p)
	}
}

func (c *Conn) becomeEstablished() {
	c.established = true
	if c.connSpan.Active() {
		elapsed := time.Duration(c.stack.k.Now()) - c.connSpan.StartTime()
		c.stack.o.connectHist.Observe(float64(elapsed) / float64(time.Millisecond))
		c.connSpan.End()
	}
	if c.onEstablished != nil {
		c.onEstablished()
	}
}

// noteRetx records one retransmitted segment on the counters and, when a
// trace is attached, as a transport-layer instant.
func (c *Conn) noteRetx(seq uint32) {
	c.retxCount++
	c.stack.o.retx.Inc()
	if tr := c.stack.o.tr; tr != nil {
		tr.Instant(obs.LayerTransport, "tcp:retx", c.obsID,
			obs.Attr{Key: "laddr", Val: c.key.Src.String()},
			obs.Attr{Key: "seq", Val: strconv.FormatUint(uint64(seq), 10)})
	}
}

// seqLEQ compares sequence numbers with wraparound.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

func (c *Conn) processAck(p *Packet) {
	ack := p.Ack
	if seqLT(c.sndNxt, ack) {
		if seqLT(c.recover, ack) {
			return // acks data we never sent
		}
		// A late ACK for pre-rollback data: fast-forward past the
		// segments the receiver already has.
		c.sndNxt = ack
	}
	if seqLT(c.sndUna, ack) {
		acked := ack - c.sndUna
		// RTT sample (Karn-safe: sampleSeq cleared on retransmit).
		if c.sampleSeq != 0 && !seqLT(ack, c.sampleSeq) {
			c.rttSample(time.Duration(c.stack.k.Now() - c.sampleAt))
			c.sampleSeq = 0
		}
		// Consume buffer, excluding the FIN's phantom byte.
		consume := int(acked)
		if consume > len(c.buf) {
			consume = len(c.buf) // FIN byte acked
		}
		c.buf = c.buf[consume:]
		c.sndUna = ack
		c.dupAcks = 0
		c.rto = c.rtoBase()
		// Congestion window growth.
		if c.cwnd < c.ssthresh {
			c.cwnd += float64(acked) // slow start
			if c.cwnd > c.ssthresh {
				c.cwnd = c.ssthresh
			}
		} else {
			c.cwnd += MSS * MSS / c.cwnd // congestion avoidance
		}
		if c.sndUna == c.sndNxt {
			c.disarmRTO()
			// FIN fully acknowledged?
			if c.state == stFinWait && c.finAcked() {
				// Wait for peer FIN (processData handles it); if it already
				// arrived we are done.
			}
			if c.state == stLastAck && c.finAcked() {
				c.teardown()
				return
			}
		} else {
			c.armRTO()
		}
		c.trySend()
	} else if ack == c.sndUna && len(p.Payload) == 0 && p.Flags&(FlagSYN|FlagFIN) == 0 && c.sndNxt != c.sndUna {
		c.dupAcks++
		if c.dupAcks == dupAckThresh {
			// Fast retransmit + simplified fast recovery.
			flight := float64(c.sndNxt - c.sndUna)
			c.ssthresh = flight / 2
			if c.ssthresh < 2*MSS {
				c.ssthresh = 2 * MSS
			}
			c.cwnd = c.ssthresh
			c.retransmitFirst()
			c.noteRetx(c.sndUna)
			c.cancelSampleIfRetransmitted()
			c.armRTO()
		}
	}
}

// cancelSampleIfRetransmitted applies Karn's rule precisely: the pending
// RTT sample is invalidated only when the sampled segment itself has been
// retransmitted (retransmissions always start at sndUna, so any sample
// whose segment begins at or before sndUna is tainted). Samples of later,
// never-retransmitted segments stay valid — cancelling them too would
// starve SRTT of updates under repeated spurious timeouts and lock the
// connection into an RTO storm when path delay grows (deep shaper queues).
func (c *Conn) cancelSampleIfRetransmitted() {
	if c.sampleSeq != 0 && !seqLT(c.sndUna, c.sampleStart) {
		c.sampleSeq = 0
	}
}

// finAcked reports whether our FIN has been acknowledged.
func (c *Conn) finAcked() bool {
	return len(c.buf) == 0 && c.sndUna == c.sndNxt
}

// rtoBase computes the RTO from smoothed RTT estimates.
func (c *Conn) rtoBase() time.Duration {
	if c.srtt == 0 {
		return initialRTO
	}
	rto := c.srtt + 4*c.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	return rto
}

func (c *Conn) rttSample(rtt time.Duration) {
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		d := c.srtt - rtt
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
}

// SRTT exposes the smoothed RTT estimate (zero before the first sample).
func (c *Conn) SRTT() time.Duration { return c.srtt }

func (c *Conn) processData(p *Packet) {
	seq := p.Seq
	payload := p.Payload
	fin := p.Flags&FlagFIN != 0

	// Trim already-received prefix.
	if seqLT(seq, c.rcvNxt) {
		skip := c.rcvNxt - seq
		if int(skip) >= len(payload) {
			if !fin || seqLT(seq+uint32(len(payload)), c.rcvNxt) {
				// Entirely duplicate: re-ACK.
				c.emit(&Packet{Seq: c.sndNxt})
				return
			}
			payload = nil
		} else {
			payload = payload[skip:]
		}
		seq = c.rcvNxt
	}

	if seq == c.rcvNxt {
		// In-order: deliver, then drain any contiguous out-of-order data.
		if len(payload) > 0 {
			c.rcvNxt += uint32(len(payload))
			c.deliver(payload)
		}
		// Drain buffered out-of-order data. Retransmitted segments may not
		// align with the original boundaries, so accept any buffered
		// segment that starts at or before rcvNxt and extends past it.
		for {
			advanced := false
			for start, data := range c.ooo {
				if seqLT(c.rcvNxt, start) {
					continue // still a gap before this segment
				}
				end := start + uint32(len(data))
				if seqLT(c.rcvNxt, end) {
					chunk := data[c.rcvNxt-start:]
					c.rcvNxt = end
					c.deliver(chunk)
				}
				delete(c.ooo, start)
				advanced = true
			}
			if !advanced {
				break
			}
		}
		if fin {
			c.rcvNxt++ // FIN consumes a sequence number
			c.handlePeerFin()
		}
		c.emit(&Packet{Seq: c.sndNxt}) // ACK
	} else {
		// Out of order: buffer and send a duplicate ACK.
		if len(payload) > 0 {
			if _, ok := c.ooo[seq]; !ok {
				c.ooo[seq] = append([]byte(nil), payload...)
			}
		}
		if fin {
			// Rare: FIN ahead of missing data. Ignore; peer will retransmit.
			_ = fin
		}
		c.emit(&Packet{Seq: c.sndNxt}) // dup ACK
	}
}

func (c *Conn) deliver(data []byte) {
	if c.onRecv != nil {
		c.onRecv(data)
	}
}

func (c *Conn) handlePeerFin() {
	switch c.state {
	case stEstablished:
		c.state = stCloseWait
	case stFinWait:
		// Both directions closing. If our FIN is acked we are done;
		// otherwise teardown when that ACK arrives (checked here for the
		// simultaneous case after ack processing).
		if c.finAcked() {
			if c.onPeerClose != nil {
				c.onPeerClose()
			}
			c.teardown()
			return
		}
		c.state = stLastAck // reuse: waiting only for our FIN's ACK
	}
	if c.onPeerClose != nil {
		c.onPeerClose()
	}
}
