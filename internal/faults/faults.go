// Package faults is the testbed's network-impairment subsystem: a set of
// composable, deterministic fault injectors that plug into the carrier Qdisc
// slot of internal/netsim, plus scheduled bearer outages injected into
// internal/radio.
//
// QoE Doctor's purpose is diagnosing QoE problems, so the testbed must be
// able to *create* the pathologies the analyzer explains: random and bursty
// packet loss (Gilbert–Elliott), reordering, duplication, corruption, rate
// jitter, and coverage gaps. Every injector draws from its own seeded RNG —
// independent of the kernel RNG, so adding or removing an impairment never
// perturbs the rest of the simulation — and the same seed always yields the
// same fault sequence, keeping impaired runs bit-for-bit reproducible.
package faults

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Stage is one impairment applied to a packet on its way through a Chain.
// Apply either forwards the packet downstream (possibly later, or more than
// once for a duplicator) by calling forward, or drops it by calling drop
// (and never calling forward).
type Stage interface {
	Apply(wireLen int, forward func(), drop func())
	// Name labels the stage in stats output.
	Name() string
}

// Chain composes stages in order in front of a downstream qdisc (the
// carrier throttle, or a pass-through). It implements netsim.Qdisc, so it
// slots directly into Network.ULQdisc / Network.DLQdisc.
type Chain struct {
	stages []Stage
	next   netsim.Qdisc

	// tr/drops are the optional observability hooks (SetObs): every
	// stage-level drop emits a radio-layer trace instant and bumps the
	// counter. The fault chain models link-layer impairment, so its drops
	// are radio-loss ground truth — the analyzer's attribution pass counts
	// them inside QoE windows to pin loss-induced stalls on the radio layer
	// instead of guessing "transport" from TCP retransmissions alone.
	tr    *obs.Trace
	drops *obs.Counter
	label string
}

// NewChain builds a chain over the given stages with a pass-through
// downstream.
func NewChain(stages ...Stage) *Chain {
	return &Chain{stages: stages, next: netsim.PassQdisc{}}
}

// SetNext installs the downstream qdisc the chain feeds into (e.g. a
// Shaper or Policer). nil restores the pass-through.
func (c *Chain) SetNext(q netsim.Qdisc) {
	if q == nil {
		q = netsim.PassQdisc{}
	}
	c.next = q
}

// Enqueue implements netsim.Qdisc.
func (c *Chain) Enqueue(wireLen int, deliver func(), drop func()) {
	c.apply(0, wireLen, deliver, drop)
}

// SetObs attaches drop instrumentation: a radio-layer "fault:drop" trace
// instant per dropped packet (under the current correlation scope, so
// drops land inside the user action that suffered them) plus a
// fault_<label>_drops counter. Nil sinks detach for free.
func (c *Chain) SetObs(tr *obs.Trace, reg *obs.Registry, label string) {
	c.tr = tr
	c.label = label
	c.drops = reg.Counter("fault_" + label + "_drops")
}

func (c *Chain) apply(i, wireLen int, deliver, drop func()) {
	if i >= len(c.stages) {
		c.next.Enqueue(wireLen, deliver, drop)
		return
	}
	c.stages[i].Apply(wireLen, func() { c.apply(i+1, wireLen, deliver, drop) }, func() {
		c.drops.Inc()
		if c.tr != nil {
			c.tr.Instant(obs.LayerRadio, "fault:drop", c.tr.Scope(),
				obs.Attr{Key: "chain", Val: c.label},
				obs.Attr{Key: "len", Val: fmt.Sprintf("%d", wireLen)})
		}
		if drop != nil {
			drop()
		}
	})
}

// Stats summarizes per-stage drop/duplicate counts for reports and tests.
func (c *Chain) Stats() string {
	parts := make([]string, 0, len(c.stages))
	for _, s := range c.stages {
		parts = append(parts, s.Name())
	}
	return strings.Join(parts, ", ")
}

// Dropped sums packets dropped across all loss-like stages.
func (c *Chain) Dropped() int {
	n := 0
	for _, s := range c.stages {
		if d, ok := s.(interface{ dropped() int }); ok {
			n += d.dropped()
		}
	}
	return n
}

// ---- individual impairments ----

// IIDLoss drops each packet independently with probability P.
type IIDLoss struct {
	rng   *rand.Rand
	P     float64
	Drops int
}

// NewIIDLoss builds an i.i.d. loss stage.
func NewIIDLoss(seed int64, p float64) *IIDLoss {
	return &IIDLoss{rng: rand.New(rand.NewSource(seed)), P: p}
}

// Apply implements Stage.
func (l *IIDLoss) Apply(wireLen int, forward, drop func()) {
	if l.rng.Float64() < l.P {
		l.Drops++
		drop()
		return
	}
	forward()
}

func (l *IIDLoss) Name() string { return fmt.Sprintf("iid-loss(p=%g,drops=%d)", l.P, l.Drops) }
func (l *IIDLoss) dropped() int { return l.Drops }

// GEParams parameterizes a Gilbert–Elliott burst-loss channel: a two-state
// Markov chain (good/bad) advanced per packet, with a per-state loss
// probability. The stationary bad-state share is PGoodBad/(PGoodBad+PBadGood)
// and the mean burst length 1/PBadGood packets.
type GEParams struct {
	PGoodBad float64 // P(good -> bad) per packet
	PBadGood float64 // P(bad -> good) per packet
	LossGood float64 // loss probability in the good state (often ~0)
	LossBad  float64 // loss probability in the bad state (often ~1)
}

// GEForMeanLoss returns parameters tuned so the long-run loss rate is
// approximately mean, arranged in bursts of avgBurst packets (the ERRANT-
// style "realistic RAN" configuration: bursty rather than i.i.d.). Bursts
// that short cannot reach a mean above avgBurst/(avgBurst+1); there the
// mean is kept and the bursts grow.
func GEForMeanLoss(mean float64, avgBurst float64) GEParams {
	if avgBurst < 1 {
		avgBurst = 1
	}
	pBG := 1 / avgBurst
	// Stationary bad share = mean/LossBad with LossBad = 1, LossGood = 0:
	// pGB/(pGB+pBG) = mean  =>  pGB = pBG*mean/(1-mean).
	if mean >= 1 {
		mean = 0.999
	}
	pGB := pBG * mean / (1 - mean)
	if pGB > 1 {
		pGB, pBG = 1, (1-mean)/mean
	}
	return GEParams{PGoodBad: pGB, PBadGood: pBG, LossGood: 0, LossBad: 1}
}

// GilbertElliott is the burst-loss stage.
type GilbertElliott struct {
	rng   *rand.Rand
	p     GEParams
	bad   bool
	Drops int
}

// NewGilbertElliott builds a GE stage starting in the good state.
func NewGilbertElliott(seed int64, p GEParams) *GilbertElliott {
	return &GilbertElliott{rng: rand.New(rand.NewSource(seed)), p: p}
}

// Apply implements Stage.
func (g *GilbertElliott) Apply(wireLen int, forward, drop func()) {
	if g.bad {
		if g.rng.Float64() < g.p.PBadGood {
			g.bad = false
		}
	} else if g.rng.Float64() < g.p.PGoodBad {
		g.bad = true
	}
	loss := g.p.LossGood
	if g.bad {
		loss = g.p.LossBad
	}
	if g.rng.Float64() < loss {
		g.Drops++
		drop()
		return
	}
	forward()
}

func (g *GilbertElliott) Name() string { return fmt.Sprintf("ge-loss(drops=%d)", g.Drops) }
func (g *GilbertElliott) dropped() int { return g.Drops }

// Corrupter flips bits with probability P per packet. A corrupted IP packet
// fails its checksum at the receiver and is discarded, so at the qdisc
// vantage point corruption manifests as loss; it is counted separately so
// reports can distinguish the two causes.
type Corrupter struct {
	rng       *rand.Rand
	P         float64
	Corrupted int
}

// NewCorrupter builds a corruption stage.
func NewCorrupter(seed int64, p float64) *Corrupter {
	return &Corrupter{rng: rand.New(rand.NewSource(seed)), P: p}
}

// Apply implements Stage.
func (c *Corrupter) Apply(wireLen int, forward, drop func()) {
	if c.rng.Float64() < c.P {
		c.Corrupted++
		drop()
		return
	}
	forward()
}

func (c *Corrupter) Name() string { return fmt.Sprintf("corrupt(p=%g,n=%d)", c.P, c.Corrupted) }
func (c *Corrupter) dropped() int { return c.Corrupted }

// Duplicator forwards each packet a second time with probability P (e.g.
// spurious link-layer retransmissions surfacing as IP duplicates).
type Duplicator struct {
	rng  *rand.Rand
	P    float64
	Dups int
}

// NewDuplicator builds a duplication stage.
func NewDuplicator(seed int64, p float64) *Duplicator {
	return &Duplicator{rng: rand.New(rand.NewSource(seed)), P: p}
}

// Apply implements Stage.
func (d *Duplicator) Apply(wireLen int, forward, drop func()) {
	forward()
	if d.rng.Float64() < d.P {
		d.Dups++
		forward()
	}
}

func (d *Duplicator) Name() string { return fmt.Sprintf("dup(p=%g,n=%d)", d.P, d.Dups) }

// Reorderer holds a packet back for Delay with probability P, letting
// later packets overtake it — out-of-order delivery that exercises TCP's
// dup-ACK machinery without any actual loss.
type Reorderer struct {
	k         *simtime.Kernel
	rng       *rand.Rand
	P         float64
	Delay     time.Duration
	Reordered int
}

// NewReorderer builds a reordering stage driven by kernel k.
func NewReorderer(k *simtime.Kernel, seed int64, p float64, delay time.Duration) *Reorderer {
	return &Reorderer{k: k, rng: rand.New(rand.NewSource(seed)), P: p, Delay: delay}
}

// Apply implements Stage.
func (r *Reorderer) Apply(wireLen int, forward, drop func()) {
	if r.rng.Float64() < r.P {
		r.Reordered++
		r.k.After(r.Delay, forward)
		return
	}
	forward()
}

func (r *Reorderer) Name() string { return fmt.Sprintf("reorder(p=%g,n=%d)", r.P, r.Reordered) }

// Jitter adds a uniform random delay in [0, Max] per packet while
// preserving FIFO order — the qdisc-level stand-in for a time-varying
// service rate (rate jitter): inter-packet spacing varies but the stream
// never reorders.
type Jitter struct {
	k   *simtime.Kernel
	rng *rand.Rand
	Max time.Duration
	// lastOut is the release time of the previous packet, enforcing FIFO.
	lastOut simtime.Time
}

// NewJitter builds a FIFO-preserving delay-jitter stage.
func NewJitter(k *simtime.Kernel, seed int64, max time.Duration) *Jitter {
	return &Jitter{k: k, rng: rand.New(rand.NewSource(seed)), Max: max}
}

// Apply implements Stage.
func (j *Jitter) Apply(wireLen int, forward, drop func()) {
	d := time.Duration(0)
	if j.Max > 0 {
		d = time.Duration(j.rng.Int63n(int64(j.Max) + 1))
	}
	out := j.k.Now() + d
	if out < j.lastOut {
		out = j.lastOut
	}
	j.lastOut = out
	j.k.At(out, forward)
}

func (j *Jitter) Name() string { return fmt.Sprintf("jitter(max=%v)", j.Max) }
