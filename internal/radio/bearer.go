package radio

import (
	"time"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// Bearer is a full-duplex cellular data bearer for one device: an RRC
// machine shared by both directions plus an uplink and a downlink RLC
// entity. The network stack hands it serialized IP packets; the bearer
// segments them into PDUs, applies promotion delays, ARQ, and loss, and
// invokes the caller's delivery callback when each packet has been
// reassembled in order at the far side.
type Bearer struct {
	k    *simtime.Kernel
	prof *Profile
	rrc  *Machine

	ul, dl *entity

	// cell is the cell whose per-direction schedulers arbitrate this
	// bearer's transmissions against the other bearers on it. It is nil
	// only during a handover, between BeginHandover and CompleteHandover:
	// a detached bearer is frozen. gain is the bearer's link-quality
	// multiplier (1 = nominal rate).
	cell *Cell
	gain float64

	monitors []Monitor

	// payloadRelease, when set, is invoked once per SDU payload as soon as
	// segmentation has copied everything the radio layer keeps (PDU sizes and
	// head bytes) — the point after which the bytes are never read again.
	payloadRelease func([]byte)

	// outageUntil is the end of the current (or most recent) bearer outage;
	// the bearer is down while Now() < outageUntil.
	outageUntil simtime.Time
	outages     int

	// tr, when attached, receives a radio-layer span covering each outage
	// (from first onset to actual recovery, merging extensions).
	tr      *obs.Trace
	outSpan obs.Span
}

// NewBearer builds a bearer over prof on cell, driven by the cell's kernel,
// and attaches it there with link-quality multiplier gain (values <= 0
// mean 1, the profile's nominal rate).
func NewBearer(cell *Cell, prof *Profile, gain float64) *Bearer {
	k := cell.k
	b := &Bearer{k: k, prof: prof, rrc: NewMachine(k, prof)}
	b.ul = newEntity(b, Uplink)
	b.dl = newEntity(b, Downlink)
	b.rrc.OnTransition(func(tr Transition) {
		for _, m := range b.monitors {
			m.RRCTransition(tr)
		}
	})
	cell.attach(b, gain)
	return b
}

// Kernel returns the driving event kernel.
func (b *Bearer) Kernel() *simtime.Kernel { return b.k }

// Profile returns the radio profile in use.
func (b *Bearer) Profile() *Profile { return b.prof }

// RRC returns the bearer's RRC machine (read-mostly; used by the power model
// and tests).
func (b *Bearer) RRC() *Machine { return b.rrc }

// SetGain updates the bearer's link-quality multiplier as the device moves
// through the cell's coverage. Values <= 0 are clamped to a small positive
// floor so transmissions always terminate.
func (b *Bearer) SetGain(g float64) {
	if g <= 0 {
		g = 0.01
	}
	b.gain = g
}

// BeginHandover starts a handover: the bearer detaches from its serving
// cell and the data plane freezes losslessly (queued SDUs and un-ACKed PDUs
// are retained — the X2 data-forwarding model). RRC state is untouched: an
// intra-technology handover keeps the connection, unlike an outage.
func (b *Bearer) BeginHandover() {
	if b.cell != nil {
		b.cell.detach(b)
	}
}

// CompleteHandover attaches the bearer to the target cell with the given
// link gain and resumes the data plane: forwarded data drains on the target
// and ARQ re-polls for anything the interruption window lost.
func (b *Bearer) CompleteHandover(target *Cell, gain float64) {
	if b.cell != nil {
		panic("radio: CompleteHandover without BeginHandover")
	}
	target.attach(b, gain)
	b.ul.resume()
	b.dl.resume()
}

// Attach registers a radio-layer monitor (e.g. the QxDM simulator).
func (b *Bearer) Attach(m Monitor) { b.monitors = append(b.monitors, m) }

// SetPayloadRelease registers a hook fired when the bearer is done reading a
// packet's payload bytes (segmentation complete). Callers use it to recycle
// marshal buffers; the hook runs at most once per payload.
func (b *Bearer) SetPayloadRelease(fn func([]byte)) { b.payloadRelease = fn }

// SetTrace attaches a trace bus for bearer outage spans.
func (b *Bearer) SetTrace(tr *obs.Trace) { b.tr = tr }

// SendUplink transmits one IP packet from the device toward the network.
// deliver(arg) fires when the packet has been fully reassembled at the base
// station, in order. A caller binds deliver once and passes the packet as
// arg, so a send allocates no closure; deliver may be nil.
func (b *Bearer) SendUplink(packet []byte, deliver func(any), arg any) {
	b.ul.send(packet, deliver, arg)
}

// SendDownlink transmits one IP packet from the network toward the device,
// with the same delivery contract as SendUplink.
func (b *Bearer) SendDownlink(packet []byte, deliver func(any), arg any) {
	b.dl.send(packet, deliver, arg)
}

// QueuedUplink reports bytes enqueued but not yet segmented on the uplink
// (used by tests and the traffic source to apply backpressure).
func (b *Bearer) QueuedUplink() int { return int(b.ul.queuedOff - b.ul.segOff) }

// QueuedDownlink is the downlink analogue of QueuedUplink.
func (b *Bearer) QueuedDownlink() int { return int(b.dl.queuedOff - b.dl.segOff) }

// ScheduleOutage schedules a bearer outage (coverage gap / handover blackout)
// covering [start, start+dur). During an outage no PDU can complete
// transmission (those that do are lost over the air, exercising ARQ), STATUS
// feedback is lost, and the RRC machine falls back to its base state — so
// traffic after the outage pays a fresh promotion delay.
func (b *Bearer) ScheduleOutage(start simtime.Time, dur time.Duration) {
	if dur <= 0 {
		return
	}
	b.k.At(start, func() { b.beginOutage(dur) })
}

// InOutage reports whether the bearer is currently down.
func (b *Bearer) InOutage() bool { return b.k.Now() < b.outageUntil }

// OutageCount returns how many distinct outages have started so far.
func (b *Bearer) OutageCount() int { return b.outages }

func (b *Bearer) beginOutage(dur time.Duration) {
	end := b.k.Now() + simtime.Time(dur)
	if end <= b.outageUntil {
		return // fully covered by an outage already in progress
	}
	if !b.InOutage() {
		b.outages++
		if b.tr != nil {
			b.outSpan = b.tr.Start(obs.LayerRadio, "bearer:outage", b.tr.Scope())
		}
	}
	b.outageUntil = end
	b.rrc.ConnectionLost()
	b.k.At(end, b.endOutage)
}

func (b *Bearer) endOutage() {
	if b.InOutage() {
		return // a later, longer outage superseded this one
	}
	b.outSpan.End()
	b.ul.resume()
	b.dl.resume()
}

func (b *Bearer) emitPDU(p *PDU) {
	for _, m := range b.monitors {
		m.DataPDU(p)
	}
}

func (b *Bearer) emitStatus(st StatusPDU) {
	for _, m := range b.monitors {
		m.StatusPDU(st)
	}
}

func (b *Bearer) emitHandover(ev HandoverEvent) {
	for _, m := range b.monitors {
		if hm, ok := m.(HandoverMonitor); ok {
			hm.Handover(ev)
		}
	}
}
