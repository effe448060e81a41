package netsim

import (
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// Qdisc is a queueing discipline applied at the base station, used to model
// carrier rate limiting. Enqueue either forwards the packet (possibly later,
// for a shaper) by calling deliver(arg), or drops it by never calling
// deliver. The caller binds deliver once and passes its packet as arg, so a
// hop allocates no closure. drop, when non-nil, is invoked on a drop so
// tests can count losses.
type Qdisc interface {
	Enqueue(wireLen int, deliver func(any), arg any, drop func())
}

// PassQdisc forwards everything immediately (no throttling).
type PassQdisc struct{}

// Enqueue implements Qdisc.
func (PassQdisc) Enqueue(wireLen int, deliver func(any), arg any, drop func()) { deliver(arg) }

// bucket is the shared token-bucket core: tokens accumulate at RateBps/8
// bytes per second up to BurstBytes.
type bucket struct {
	k          *simtime.Kernel
	rateBps    float64
	burstBytes float64
	tokens     float64
	last       simtime.Time
}

// bucketMinBytes is the minimum bucket capacity: one full-size packet plus
// headroom. A bucket smaller than the MTU could never pass a full-size
// packet no matter how long tokens accrue.
const bucketMinBytes = 1600

func newBucket(k *simtime.Kernel, rateBps float64, burstBytes int) *bucket {
	if burstBytes < bucketMinBytes {
		burstBytes = bucketMinBytes
	}
	return &bucket{k: k, rateBps: rateBps, burstBytes: float64(burstBytes), tokens: float64(burstBytes)}
}

// refill accrues tokens since the last call.
func (b *bucket) refill() {
	now := b.k.Now()
	elapsed := time.Duration(now - b.last).Seconds()
	b.last = now
	b.tokens += elapsed * b.rateBps / 8
	if b.tokens > b.burstBytes {
		b.tokens = b.burstBytes
	}
}

// tokenEpsilon absorbs float accumulation error so a packet whose tokens
// have "arithmetically" accrued is never spuriously refused (which would
// otherwise cause a zero-delay retry loop in the shaper).
const tokenEpsilon = 1e-6

// take consumes n bytes of tokens if available.
func (b *bucket) take(n int) bool {
	b.refill()
	if b.tokens+tokenEpsilon >= float64(n) {
		b.tokens -= float64(n)
		if b.tokens < 0 {
			b.tokens = 0
		}
		return true
	}
	return false
}

// neverDelay stands in for "tokens will never accrue" (zero or negative
// rate): far enough out that the drain event never fires within any
// experiment, without overflowing the simtime arithmetic the way an Inf
// division would.
const neverDelay = 365 * 24 * time.Hour

// deficitDelay returns how long until n bytes of tokens will have accrued,
// rounded up so that a subsequent take succeeds.
func (b *bucket) deficitDelay(n int) time.Duration {
	b.refill()
	deficit := float64(n) - b.tokens
	if deficit <= 0 {
		return 0
	}
	if b.rateBps <= 0 {
		return neverDelay
	}
	d := time.Duration(deficit/(b.rateBps/8)*float64(time.Second)) + time.Microsecond
	return d
}

// qdiscObs is the drop instrumentation shared by Policer and Shaper: a
// per-qdisc drop counter plus a transport-layer instant carrying the current
// correlation scope. The zero value is detached.
type qdiscObs struct {
	tr    *obs.Trace
	name  string
	drops *obs.Counter
}

func (o *qdiscObs) set(tr *obs.Trace, reg *obs.Registry, name string) {
	o.tr = tr
	o.name = name
	o.drops = reg.Counter("qdisc_" + name + "_drops")
}

func (o *qdiscObs) noteDrop(wireLen int) {
	o.drops.Inc()
	if o.tr != nil {
		o.tr.Instant(obs.LayerTransport, "qdisc:drop", o.tr.Scope(),
			obs.Attr{Key: "qdisc", Val: o.name},
			obs.Attr{Key: "bytes", Val: strconv.Itoa(wireLen)})
	}
}

// Policer drops packets that exceed the token bucket — the C1 LTE throttling
// mechanism (§7.5). Dropped excess traffic triggers TCP retransmissions and
// the bursty goodput the paper observes.
type Policer struct {
	b     *bucket
	o     qdiscObs
	Drops int
}

// SetObs attaches drop instrumentation under the given qdisc name (e.g.
// "police_ul").
func (p *Policer) SetObs(tr *obs.Trace, reg *obs.Registry, name string) {
	p.o.set(tr, reg, name)
}

// NewPolicer creates a policer at rateBps with the given burst allowance.
func NewPolicer(k *simtime.Kernel, rateBps float64, burstBytes int) *Policer {
	return &Policer{b: newBucket(k, rateBps, burstBytes)}
}

// Enqueue implements Qdisc.
func (p *Policer) Enqueue(wireLen int, deliver func(any), arg any, drop func()) {
	if p.b.take(wireLen) {
		deliver(arg)
		return
	}
	p.Drops++
	p.o.noteDrop(wireLen)
	if drop != nil {
		drop()
	}
}

// Shaper queues packets that exceed the token bucket and releases them as
// tokens accrue — the C1 3G throttling mechanism (§7.5). The queue is
// drop-tail with a byte limit; in steady state the shaper produces a smooth
// rate with few TCP drops.
type Shaper struct {
	k        *simtime.Kernel
	b        *bucket
	o        qdiscObs
	queue    []shaped
	queued   int // bytes in queue
	limit    int // max queued bytes before tail drop
	draining bool
	Drops    int
	// releaseFn is release, bound once: a drain schedules it per packet.
	releaseFn func()
}

// SetObs attaches drop instrumentation under the given qdisc name (e.g.
// "shape_dl").
func (s *Shaper) SetObs(tr *obs.Trace, reg *obs.Registry, name string) {
	s.o.set(tr, reg, name)
}

type shaped struct {
	wireLen int
	deliver func(any)
	arg     any
}

// NewShaper creates a shaper at rateBps with the given burst allowance and
// queue byte limit.
func NewShaper(k *simtime.Kernel, rateBps float64, burstBytes, queueLimit int) *Shaper {
	s := &Shaper{k: k, b: newBucket(k, rateBps, burstBytes), limit: queueLimit}
	s.releaseFn = s.release
	return s
}

// Enqueue implements Qdisc.
func (s *Shaper) Enqueue(wireLen int, deliver func(any), arg any, drop func()) {
	if len(s.queue) == 0 && s.b.take(wireLen) {
		deliver(arg)
		return
	}
	if s.queued+wireLen > s.limit {
		s.Drops++
		s.o.noteDrop(wireLen)
		if drop != nil {
			drop()
		}
		return
	}
	s.queue = append(s.queue, shaped{wireLen, deliver, arg})
	s.queued += wireLen
	s.drain()
}

// QueuedBytes reports the current queue occupancy.
func (s *Shaper) QueuedBytes() int { return s.queued }

func (s *Shaper) drain() {
	if s.draining || len(s.queue) == 0 {
		return
	}
	delay := s.b.deficitDelay(s.queue[0].wireLen)
	s.draining = true
	s.k.After(delay, s.releaseFn)
}

// release forwards the head of the queue once its tokens have accrued.
func (s *Shaper) release() {
	s.draining = false
	if len(s.queue) == 0 {
		return
	}
	head := s.queue[0]
	if !s.b.take(head.wireLen) {
		// Tokens raced away (shouldn't happen with one drainer); retry.
		s.drain()
		return
	}
	s.queue[0] = shaped{}
	s.queue = s.queue[1:]
	s.queued -= head.wireLen
	head.deliver(head.arg)
	s.drain()
}
