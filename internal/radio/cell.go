package radio

import (
	"fmt"
	"math"
	"time"

	"repro/internal/simtime"
)

// SchedPolicy selects how a Cell divides each direction's air interface
// among the active bearers.
type SchedPolicy uint8

const (
	// SchedRoundRobin serves active bearers one PDU at a time in rotation —
	// equal transmission opportunities regardless of channel quality.
	SchedRoundRobin SchedPolicy = iota
	// SchedPropFair serves the bearer maximizing instantaneous rate divided
	// by its exponentially-averaged served rate — the classic cellular
	// proportional-fair tradeoff between aggregate throughput and fairness.
	SchedPropFair
)

func (p SchedPolicy) String() string {
	switch p {
	case SchedRoundRobin:
		return "rr"
	case SchedPropFair:
		return "pf"
	}
	return fmt.Sprintf("SchedPolicy(%d)", uint8(p))
}

// ParsePolicy parses a scheduler policy name ("rr" | "pf").
func ParsePolicy(s string) (SchedPolicy, error) {
	switch s {
	case "rr", "round-robin", "":
		return SchedRoundRobin, nil
	case "pf", "proportional-fair":
		return SchedPropFair, nil
	}
	return 0, fmt.Errorf("radio: unknown scheduler policy %q (rr | pf)", s)
}

// ParseProfile returns a fresh radio profile for a network name
// ("lte" | "3g" | "3g-simple" | "wifi"; empty means LTE).
func ParseProfile(s string) (*Profile, error) {
	switch s {
	case "lte", "":
		return ProfileLTE(), nil
	case "3g":
		return Profile3G(), nil
	case "3g-simple":
		return ProfileSimplified3G(), nil
	case "wifi":
		return ProfileWiFi(), nil
	}
	return nil, fmt.Errorf("radio: unknown network %q (lte | 3g | 3g-simple | wifi)", s)
}

// pfTau is the proportional-fair averaging window: served-rate EWMAs decay
// with this time constant, so a bearer that has been starved for a few
// hundred milliseconds quickly regains priority.
const pfTau = 500 * time.Millisecond

// Cell is a base-station cell shared by several bearers. Each direction has
// one air-interface channel that serves a single PDU at a time, so when N
// devices are active their RLC transmissions serialize and cross-UE
// contention, queueing delay, and RRC promotion storms emerge naturally
// instead of being modeled. Every bearer is built on its cell (NewBearer)
// and leaves it only for the interruption window of a handover, so every
// PDU reaches the air through a cell's scheduler.
//
// The cell performs no randomization of its own: scheduling decisions are a
// pure function of bearer state and attach order, so fleet runs stay
// deterministic for a fixed seed.
type Cell struct {
	k      *simtime.Kernel
	policy SchedPolicy
	ul, dl cellChannel
	id     int
	// attachSeq numbers attachments monotonically so proportional-fair
	// tie-breaks stay unique and deterministic across detach/re-attach
	// churn.
	attachSeq int
}

// NewCell creates a cell driven by kernel k. id is the cell's topology ID,
// which labels reports and handover events (0 in a one-cell fleet).
func NewCell(k *simtime.Kernel, policy SchedPolicy, id int) *Cell {
	c := &Cell{k: k, policy: policy, id: id}
	c.ul = cellChannel{cell: c, dir: Uplink, share: 1}
	c.dl = cellChannel{cell: c, dir: Downlink, share: 1}
	// Method values allocate; dispatch runs once per served PDU, so cache
	// the closure for the lifetime of the channel.
	c.ul.dispatchFn = c.ul.dispatch
	c.dl.dispatchFn = c.dl.dispatch
	return c
}

// ID returns the cell's topology ID.
func (c *Cell) ID() int { return c.id }

// Policy returns the cell's scheduling policy.
func (c *Cell) Policy() SchedPolicy { return c.policy }

// attach puts a detached bearer's RLC entities under this cell's
// schedulers. gain is the bearer's link-quality multiplier on its
// data-plane bandwidth (1 = the profile's nominal rate); values <= 0
// default to 1.
func (c *Cell) attach(b *Bearer, gain float64) {
	if gain <= 0 {
		gain = 1
	}
	b.cell = c
	b.gain = gain
	b.ul.ch = &c.ul
	b.dl.ch = &c.dl
	b.ul.cellIdx = c.attachSeq
	b.dl.cellIdx = c.attachSeq
	c.attachSeq++
	// A freshly attached bearer starts with no served-rate history on this
	// cell: a handed-over UE competes like a newcomer.
	b.ul.ewmaBps, b.ul.ewmaAt = 0, 0
	b.dl.ewmaBps, b.dl.ewmaAt = 0, 0
}

// detach removes a bearer from this cell's schedulers — the handover
// primitive. Any PDU already on the air completes its occupancy of this
// cell's channel (the entity remembers which channel it was granted), but
// the entity leaves the wait rings immediately and receives no further
// grants. The bearer can then be attached to another cell.
func (c *Cell) detach(b *Bearer) {
	c.ul.remove(b.ul)
	c.dl.remove(b.dl)
	// An entity waiting in the ring (no PDU on the air) is parked here; one
	// mid-transmission parks itself when the occupancy completes. Without
	// this, kick() after re-attach sees sending=true and the entity never
	// transmits again.
	if b.ul.onAir == nil {
		b.ul.sending = false
	}
	if b.dl.onAir == nil {
		b.dl.sending = false
	}
	b.ul.ch = nil
	b.dl.ch = nil
	b.cell = nil
}

// cellChannel is one direction's shared air interface: a busy flag covering
// the PDU currently on the air plus the ring of entities waiting for a
// transmission opportunity.
type cellChannel struct {
	cell *Cell
	dir  Direction
	busy bool
	ring []*entity
	// share scales every bearer's effective rate on this channel; sharded
	// fleets set it at epoch barriers to model airtime consumed by the same
	// topology cell's bearers living on other shards. 1 = full capacity.
	share float64
	// airtime accumulates PDU air occupancy since the last TakeAirtime, the
	// load figure exchanged across shards at each lookahead barrier.
	airtime simtime.Time
	// dispatchFn is the cached dispatch closure (method values allocate).
	dispatchFn func()
}

// remove drops an entity from the wait ring, preserving order.
func (ch *cellChannel) remove(e *entity) {
	if !e.inRing {
		return
	}
	e.inRing = false
	for i, x := range ch.ring {
		if x == e {
			ch.ring = append(ch.ring[:i], ch.ring[i+1:]...)
			return
		}
	}
}

// TakeAirtime returns the per-direction air occupancy accumulated since the
// previous call and resets the accumulators.
func (c *Cell) TakeAirtime() (ul, dl simtime.Time) {
	ul, dl = c.ul.airtime, c.dl.airtime
	c.ul.airtime, c.dl.airtime = 0, 0
	return ul, dl
}

// SetShares sets the per-direction capacity fraction available to this
// cell instance for the next lookahead epoch. Values are clamped to (0, 1].
func (c *Cell) SetShares(ul, dl float64) {
	c.ul.share = clampShare(ul)
	c.dl.share = clampShare(dl)
}

func clampShare(s float64) float64 {
	if s > 1 || s <= 0 {
		return 1
	}
	return s
}

// activate adds an entity to the wait ring (if absent) and starts the
// dispatcher when the channel is idle.
func (ch *cellChannel) activate(e *entity) {
	ch.enqueue(e)
	ch.dispatch()
}

func (ch *cellChannel) enqueue(e *entity) {
	if e.inRing {
		return
	}
	e.inRing = true
	ch.ring = append(ch.ring, e)
}

// dispatch grants transmission opportunities until the channel is busy or
// nothing is left to serve. Entities that turn out to have nothing to send
// (outage, drained queue) are dropped from the ring and the next is tried.
func (ch *cellChannel) dispatch() {
	for !ch.busy && len(ch.ring) > 0 {
		e := ch.pick()
		e.inRing = false
		if e.startTx() {
			ch.busy = true
		}
	}
}

// served completes one PDU's air occupancy: update the proportional-fair
// accounting, rotate the entity to the back of the ring when it still has
// work, and hand the channel to the next bearer on a fresh zero-delay
// event.
func (ch *cellChannel) served(e *entity, p *PDU, more bool) {
	ch.busy = false
	if ch.cell.policy == SchedPropFair {
		e.creditServed(p.Size)
	}
	if more {
		ch.enqueue(e)
	}
	if len(ch.ring) > 0 {
		ch.cell.k.After(0, ch.dispatchFn)
	}
}

// pick removes and returns the next entity to serve. Round-robin takes the
// ring head (rotation comes from served() re-appending); proportional-fair
// takes the argmax of instantaneous rate over decayed served rate, breaking
// ties by attach order so the choice is deterministic.
func (ch *cellChannel) pick() *entity {
	if ch.cell.policy == SchedRoundRobin || len(ch.ring) == 1 {
		e := ch.ring[0]
		copy(ch.ring, ch.ring[1:])
		ch.ring = ch.ring[:len(ch.ring)-1]
		return e
	}
	now := ch.cell.k.Now()
	best, bestMetric := 0, math.Inf(-1)
	for i, e := range ch.ring {
		inst := e.bandwidth() * e.b.gain
		avg := e.decayedRate(now)
		if avg < 1 {
			avg = 1 // a never-served bearer gets full priority
		}
		m := inst / avg
		if m > bestMetric || (m == bestMetric && e.cellIdx < ch.ring[best].cellIdx) {
			best, bestMetric = i, m
		}
	}
	e := ch.ring[best]
	ch.ring = append(ch.ring[:best], ch.ring[best+1:]...)
	return e
}

// decayedRate returns the entity's served-rate EWMA decayed to now.
func (e *entity) decayedRate(now simtime.Time) float64 {
	if e.ewmaBps == 0 {
		return 0
	}
	dt := float64(now - e.ewmaAt)
	if dt > 0 {
		e.ewmaBps *= math.Exp(-dt / float64(pfTau))
		e.ewmaAt = now
	}
	return e.ewmaBps
}

// creditServed folds one served PDU into the entity's rate average.
func (e *entity) creditServed(size int) {
	now := e.b.k.Now()
	e.decayedRate(now)
	// A PDU of size bytes served "now" contributes its bits spread over the
	// averaging window.
	e.ewmaBps += float64(size) * 8 / pfTau.Seconds()
	e.ewmaAt = now
}
