package radio

import (
	"time"

	"repro/internal/simtime"
)

// Direction distinguishes uplink (device to base station) from downlink.
type Direction int

const (
	Uplink Direction = iota
	Downlink
)

func (d Direction) String() string {
	if d == Uplink {
		return "UL"
	}
	return "DL"
}

// PDU is one RLC protocol data unit as seen over the air. To keep memory
// bounded across million-PDU experiments, a PDU stores only what QxDM logs
// and what the cross-layer mapping consumes: the payload length, the first
// two payload bytes, and the Length Indicators. (QxDM itself only captures 2
// payload bytes per PDU — the limitation that motivates the paper's
// long-jump mapping algorithm.)
type PDU struct {
	Seq  uint32
	Dir  Direction
	Size int     // payload bytes carried
	Head [2]byte // first 2 payload bytes (Head[1] undefined when Size < 2)
	// LI holds Length Indicators: offsets within this PDU's payload at
	// which an SDU (IP packet) ends, in increasing order. An offset equal
	// to Size means an SDU ends exactly at the PDU boundary.
	LI []int
	// Poll is the ARQ poll bit requesting a STATUS report.
	Poll bool
	// Retx marks ARQ retransmissions of a previously lost PDU.
	Retx bool
	// SentAt is when transmission of this PDU finished (the timestamp the
	// diagnostic monitor records).
	SentAt simtime.Time
	// StreamOff is the absolute byte offset of this PDU's payload within
	// the direction's SDU byte stream. It is internal bookkeeping (not
	// available to the analyzer, which must infer the mapping).
	StreamOff uint64
}

// StatusPDU is the ARQ feedback control PDU sent by the receiver in response
// to a poll.
type StatusPDU struct {
	At  simtime.Time // when the sender received it
	Dir Direction    // direction of the *data* flow being acknowledged
	// AckSeq acknowledges all PDUs with Seq < AckSeq except those in Nack.
	AckSeq uint32
	Nack   []uint32
}

// Monitor observes radio-layer events. The qxdm package implements it to
// build diagnostic logs; tests implement it directly.
type Monitor interface {
	// RRCTransition is called on every RRC state change.
	RRCTransition(Transition)
	// DataPDU is called when a data PDU finishes transmission over the air.
	DataPDU(*PDU)
	// StatusPDU is called when the data sender receives ARQ feedback.
	StatusPDU(StatusPDU)
}

// An upper-layer packet (SDU) queued for RLC transmission sits in two
// queues of its entity, by value: segmentation keeps its payload until the
// last byte is in a PDU, and delivery keeps its callback until the far side
// has reassembled it in order.

// sduSeg is an SDU awaiting segmentation.
type sduSeg struct {
	bytes []byte // payload; released once fully segmented
	end   uint64 // absolute stream offset at which this SDU ends
}

// sduDelivery is an SDU awaiting in-order reassembly at the far side.
type sduDelivery struct {
	end     uint64
	deliver func(any) // fired as deliver(arg)
	arg     any
}

// fifo is a queue held by value in a ring that keeps its backing array, so
// a steady stream of pushes allocates nothing.
type fifo[T any] struct {
	ring []T // len(ring) is zero or a power of two
	head int
	n    int
}

func (q *fifo[T]) len() int { return q.n }

// front returns the oldest item; the queue must not be empty.
func (q *fifo[T]) front() *T { return &q.ring[q.head] }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.ring) {
		grown := make([]T, max(8, 2*len(q.ring)))
		n := copy(grown, q.ring[q.head:])
		copy(grown[n:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = v
	q.n++
}

// pop drops the oldest item and clears its slot, so the ring keeps no
// payload or callback argument alive.
func (q *fifo[T]) pop() {
	var zero T
	q.ring[q.head] = zero
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
}

// entity is one direction's RLC acknowledged-mode entity: segmentation on
// the sending side and in-order reassembly accounting on the receiving side.
// Both sides live in one struct because the simulation owns both endpoints.
type entity struct {
	b   *Bearer
	dir Direction

	payloadSize int
	pollEvery   int
	maxWindow   int // max unacked PDUs in flight before the sender stalls

	// ch is the cell channel this entity transmits on, nil while the bearer
	// is detached for a handover (the data plane is frozen). cellIdx is the
	// bearer's attach order on the cell, used for deterministic
	// tie-breaking; inRing marks membership in the channel's wait ring.
	ch      *cellChannel
	cellIdx int
	inRing  bool
	// txCh is the channel the PDU currently on the air was granted by. It
	// can outlive ch: a handover may detach the bearer mid-flight, and the
	// occupancy must complete (and release) the old cell's channel.
	txCh *cellChannel
	// onAir is the PDU currently transmitting (at most one per entity), and
	// the cached completion/start closures below keep the per-PDU hot path
	// allocation-free (method values and fresh closures both allocate).
	onAir     *PDU
	pduSentFn func()
	startFn   func()
	statusFn  func()
	receiveFn func(any) // receive(arg.(*PDU))
	// ewmaBps and ewmaAt are the proportional-fair scheduler's served-rate
	// average (lazily decayed at ewmaAt).
	ewmaBps float64
	ewmaAt  simtime.Time

	// Sender state.
	queue     fifo[sduSeg] // SDUs not yet fully segmented
	queuedOff uint64       // stream offset covered by queue (total enqueued)
	segOff    uint64       // stream offset segmented into PDUs so far
	nextSeq   uint32
	sincePoll int
	sending   bool
	stalled   bool            // window-full, waiting for STATUS
	lost      map[uint32]*PDU // sent but lost over the air, awaiting NACK
	inFlight  map[uint32]*PDU // sent, not yet acked
	retx      []*PDU          // NACKed PDUs awaiting retransmission
	statusDue bool            // a STATUS is scheduled
	// Receiver state.
	recvSeq    uint32          // next in-order sequence number expected
	heldPDUs   map[uint32]bool // received out of order (ahead of a loss)
	heldSize   map[uint32]int
	delivered  uint64            // in-order payload bytes delivered to the far side
	pendingSDU fifo[sduDelivery] // SDUs awaiting delivery, ordered by end offset
}

func newEntity(b *Bearer, dir Direction) *entity {
	e := &entity{
		b:        b,
		dir:      dir,
		lost:     make(map[uint32]*PDU),
		inFlight: make(map[uint32]*PDU),
		heldPDUs: make(map[uint32]bool),
		heldSize: make(map[uint32]int),
	}
	if dir == Uplink {
		e.payloadSize = b.prof.ULPDUPayload
	} else {
		e.payloadSize = b.prof.DLPDUPayload
	}
	e.pollEvery = b.prof.PollInterval
	// AM transmit window: half the 12-bit sequence space, as in the 3GPP
	// RLC spec. Small enough to stall on persistent feedback loss, large
	// enough not to throttle bulk transfers.
	e.maxWindow = 2048
	e.pduSentFn = func() {
		p := e.onAir
		e.onAir = nil
		e.pduSent(p)
	}
	e.startFn = e.start
	e.statusFn = e.statusArrived
	e.receiveFn = func(p any) { e.receive(p.(*PDU)) }
	return e
}

// send enqueues an upper-layer packet for transmission. deliver(arg) is
// invoked (in virtual time) when the SDU has been reassembled in order at
// the far side.
func (e *entity) send(payload []byte, deliver func(any), arg any) {
	if len(payload) == 0 {
		// A zero-byte SDU occupies no stream bytes and would never be
		// covered by the receiver's delivered counter; complete it
		// immediately (real stacks never emit empty PDUs either).
		if deliver != nil {
			e.b.k.AfterWith(0, deliver, arg)
		}
		return
	}
	e.queuedOff += uint64(len(payload))
	e.queue.push(sduSeg{bytes: payload, end: e.queuedOff})
	e.pendingSDU.push(sduDelivery{end: e.queuedOff, deliver: deliver, arg: arg})
	e.kick()
}

// kick starts the transmission loop if it is not already running, honoring
// RRC promotion delay.
func (e *entity) kick() {
	if e.sending || e.stalled {
		return
	}
	if e.b.InOutage() {
		return // resume() re-kicks when the bearer comes back
	}
	if e.ch == nil {
		return // CompleteHandover re-kicks on the target cell
	}
	if !e.hasWork() {
		return
	}
	e.sending = true
	ready := e.b.rrc.OnActivity()
	now := e.b.k.Now()
	if ready < now {
		ready = now
	}
	e.b.k.At(ready, e.startFn)
}

// start begins transmission once the RRC promotion delay has elapsed: the
// entity joins its cell channel's wait ring and transmits when scheduled.
func (e *entity) start() {
	if e.ch == nil {
		// A promotion completed inside the handover interruption window;
		// CompleteHandover re-kicks on the target cell.
		e.sending = false
		return
	}
	e.ch.activate(e)
}

func (e *entity) hasWork() bool {
	return len(e.retx) > 0 || e.segOff < e.queuedOff
}

// bandwidth returns this direction's current data-plane rate, falling back
// to the active-state rate during promotion (the machine has already
// transitioned by the time data flows).
func (e *entity) bandwidth() float64 {
	p := e.b.rrc.Params()
	bw := p.ULBandwidthBps
	if e.dir == Downlink {
		bw = p.DLBandwidthBps
	}
	if bw <= 0 {
		p = e.b.prof.States[e.b.prof.Active]
		bw = p.ULBandwidthBps
		if e.dir == Downlink {
			bw = p.DLBandwidthBps
		}
	}
	return bw
}

// buildPDU segments the next PDU from the queued SDU byte stream.
func (e *entity) buildPDU() *PDU {
	p := &PDU{Seq: e.nextSeq, Dir: e.dir, StreamOff: e.segOff}
	e.nextSeq++
	want := e.payloadSize
	// Walk the SDU queue copying sizes (and the first two bytes).
	for want > 0 && e.queue.len() > 0 {
		s := e.queue.front()
		sduStart := s.end - uint64(len(s.bytes))
		offInSDU := int(e.segOff - sduStart) // bytes of s already segmented
		avail := len(s.bytes) - offInSDU
		take := avail
		if take > want {
			take = want
		}
		if p.Size < 2 {
			for i := 0; i < take && p.Size+i < 2; i++ {
				p.Head[p.Size+i] = s.bytes[offInSDU+i]
			}
		}
		p.Size += take
		want -= take
		e.segOff += uint64(take)
		if e.segOff == s.end {
			p.LI = append(p.LI, p.Size) // SDU ends inside (or at end of) this PDU
			// Payload no longer needed: release it for reuse.
			if rel := e.b.payloadRelease; rel != nil {
				rel(s.bytes)
			}
			e.queue.pop()
		}
	}
	return p
}

// resume restarts the entity after a bearer outage: re-poll for ARQ feedback
// (any STATUS in flight during the outage was lost, and PDUs that finished
// mid-outage need NACKing) and restart the transmission loop.
func (e *entity) resume() {
	if len(e.lost) > 0 || len(e.inFlight) > 0 {
		e.schedStatus()
	}
	e.kick()
}

// startTx is the cell scheduler's grant: attempt to start one PDU
// transmission for this entity. It reports whether the channel is now busy;
// a parked entity (outage, drained queue) returns false so the dispatcher
// can move on to the next bearer. A detached entity is never granted: it
// left the wait ring when it detached.
func (e *entity) startTx() bool {
	if e.b.InOutage() {
		// The bearer went down between joining the ring and this grant;
		// park the sender — resume() restarts it.
		e.sending = false
		return false
	}
	p := e.nextPDU()
	if p == nil {
		e.sending = false
		return false
	}
	e.transmit(p)
	return true
}

// nextPDU pops the next PDU to send: a pending retransmission first, then a
// fresh segment of the queued SDU stream. Nil when there is nothing to send.
func (e *entity) nextPDU() *PDU {
	if len(e.retx) > 0 {
		p := e.retx[0]
		e.retx = e.retx[1:]
		p.Retx = true
		return p
	}
	if e.segOff < e.queuedOff {
		return e.buildPDU()
	}
	return nil
}

// transmit puts one PDU on the air: refresh the RRC inactivity timer, apply
// the ARQ polling policy, and schedule completion after the airtime.
func (e *entity) transmit(p *PDU) {
	// Refresh the RRC inactivity timer; bandwidth may have changed state.
	e.b.rrc.OnActivity()
	bw := e.bandwidth() * e.b.gain
	if e.ch.share != 1 {
		// Capacity fraction left by the same topology cell's bearers on
		// other shards (multiplying by the default share of 1 would be a
		// float no-op, but skipping it keeps intent obvious).
		bw *= e.ch.share
	}
	txTime := e.b.prof.PDUHeaderTime +
		simtime.Time(float64(p.Size)*8/bw*float64(simtime.Time(1e9)))

	e.sincePoll++
	lastOfBurst := len(e.retx) == 0 && e.segOff >= e.queuedOff
	if e.sincePoll >= e.pollEvery || lastOfBurst {
		p.Poll = true
		e.sincePoll = 0
	}

	e.ch.airtime += txTime
	e.txCh = e.ch
	e.onAir = p
	e.b.k.After(txTime, e.pduSentFn)
}

// pduSent finishes one PDU's transmission: records it, applies loss, updates
// receiver state, schedules STATUS if polled, and releases the channel,
// rejoining its wait ring when there is more to send.
func (e *entity) pduSent(p *PDU) {
	k := e.b.k
	p.SentAt = k.Now()
	e.b.emitPDU(p)

	dropped := k.Rand().Float64() < e.b.prof.PDULossProb
	if e.b.InOutage() {
		// A PDU whose transmission completes during a bearer outage never
		// reaches the far side — it will be NACKed and retransmitted.
		dropped = true
	}
	e.inFlight[p.Seq] = p
	if dropped {
		e.lost[p.Seq] = p
	} else {
		// Arrives at the receiver after the one-way air latency.
		oneWay := e.b.prof.OTARTT / 2
		k.AfterWith(oneWay, e.receiveFn, p)
	}

	if p.Poll {
		e.schedStatus()
	}

	// The channel that granted this PDU: normally e.ch, but a handover may
	// have detached the bearer mid-flight, in which case the occupancy must
	// complete on the old cell's channel with no further grant.
	ch := e.txCh
	e.txCh = nil

	// Window check: stall if too many unacked PDUs.
	if len(e.inFlight) >= e.maxWindow {
		e.stalled = true
		e.sending = false
		if !e.statusDue {
			e.schedStatus() // make sure feedback is coming
		}
		ch.served(e, p, false)
		return
	}
	more := ch == e.ch && e.hasWork()
	if !more {
		e.sending = false
	}
	ch.served(e, p, more)
}

// schedStatus schedules the ARQ STATUS report arriving back at the sender
// one OTA RTT after the poll.
func (e *entity) schedStatus() {
	if e.statusDue {
		return
	}
	e.statusDue = true
	k := e.b.k
	rtt := e.b.prof.OTARTT
	if j := e.b.prof.OTAJitter; j > 0 {
		rtt += simtime.Time(k.Rand().Int63n(int64(2*j))) - j
	}
	if rtt < time.Millisecond {
		rtt = time.Millisecond
	}
	k.After(rtt, e.statusFn)
}

// statusArrived processes ARQ feedback at the sender.
func (e *entity) statusArrived() {
	e.statusDue = false
	if e.b.InOutage() {
		// The STATUS PDU was lost in the outage; resume() re-polls once the
		// bearer is back.
		return
	}
	if e.ch == nil {
		// STATUS arrived during the handover interruption window and is
		// lost with it; CompleteHandover re-polls via resume().
		return
	}
	st := StatusPDU{At: e.b.k.Now(), Dir: e.dir, AckSeq: e.nextSeq}
	// NACK everything currently known lost; queue retransmissions.
	for seq, p := range e.lost {
		st.Nack = append(st.Nack, seq)
		e.retx = append(e.retx, p)
		delete(e.lost, seq)
	}
	sortSeqs(st.Nack)
	sortPDUs(e.retx)
	// Ack (drop from flight) everything not nacked.
	for seq := range e.inFlight {
		nacked := false
		for _, n := range st.Nack {
			if n == seq {
				nacked = true
				break
			}
		}
		if !nacked {
			delete(e.inFlight, seq)
		}
	}
	// Retransmissions stay in flight until acked by a later STATUS.
	for _, p := range e.retx {
		e.inFlight[p.Seq] = p
	}
	e.b.emitStatus(st)
	if e.stalled {
		e.stalled = false
	}
	e.kick()
}

// receive handles a data PDU at the receiving side, advancing in-order
// delivery.
func (e *entity) receive(p *PDU) {
	if p.Seq >= e.recvSeq {
		e.heldPDUs[p.Seq] = true
		e.heldSize[p.Seq] = p.Size
	}
	for e.heldPDUs[e.recvSeq] {
		e.delivered += uint64(e.heldSize[e.recvSeq])
		delete(e.heldPDUs, e.recvSeq)
		delete(e.heldSize, e.recvSeq)
		e.recvSeq++
	}
	// Deliver every SDU whose end offset is now covered.
	now := e.b.k.Now()
	for e.pendingSDU.len() > 0 && e.pendingSDU.front().end <= e.delivered {
		if s := e.pendingSDU.front(); s.deliver != nil {
			// Deliver via a zero-delay event to keep callback reentrancy
			// out of the RLC state machine.
			e.b.k.AtWith(now, s.deliver, s.arg)
		}
		e.pendingSDU.pop()
	}
}

func sortSeqs(xs []uint32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func sortPDUs(ps []*PDU) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Seq < ps[j-1].Seq; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}
