package faults

import (
	"fmt"
	"time"

	"repro/internal/simtime"
)

// Direction selects which side of the carrier path a chain impairs. The two
// directions get independent RNG streams derived from one plan seed, so an
// uplink impairment never perturbs the downlink drop sequence.
type Direction int

const (
	Uplink Direction = iota
	Downlink
)

// Outage is one scheduled bearer outage (coverage gap, handover blackout).
type Outage struct {
	Start    time.Duration // virtual time at which the bearer goes down
	Duration time.Duration
}

// Plan declares a full impairment scenario. The zero value is a perfect
// network. All randomness is derived from the seed passed to Build — which
// a fleet takes from Scenario.Seed — so two runs of the same plan with the
// same seed produce byte-identical fault sequences.
type Plan struct {
	// LossProb drops packets i.i.d. with this probability.
	LossProb float64
	// GE enables Gilbert–Elliott burst loss (nil = disabled).
	GE *GEParams
	// DupProb delivers packets twice with this probability.
	DupProb float64
	// CorruptProb corrupts (and therefore drops, at the receiver's
	// checksum) packets with this probability.
	CorruptProb float64
	// ReorderProb holds a packet back ReorderDelay with this probability,
	// letting later packets overtake it.
	ReorderProb  float64
	ReorderDelay time.Duration // default 30ms when ReorderProb > 0
	// JitterMax adds a uniform [0, JitterMax] FIFO-preserving delay per
	// packet (rate jitter).
	JitterMax time.Duration
	// Outages schedules bearer outages, injected into the radio layer.
	Outages []Outage
}

// Empty reports whether the plan impairs nothing at all.
func (p *Plan) Empty() bool {
	return p == nil || (p.LossProb <= 0 && p.GE == nil && p.DupProb <= 0 &&
		p.CorruptProb <= 0 && p.ReorderProb <= 0 && p.JitterMax <= 0 &&
		len(p.Outages) == 0)
}

// Validate rejects a malformed plan: a probability outside [0, 1], a
// negative delay, or an outage that starts before time zero or lasts a
// negative time. A nil plan is valid.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	type prob struct {
		name string
		v    float64
	}
	probs := []prob{
		{"loss", p.LossProb}, {"duplication", p.DupProb},
		{"corruption", p.CorruptProb}, {"reorder", p.ReorderProb},
	}
	if ge := p.GE; ge != nil {
		probs = append(probs,
			prob{"GE good-to-bad", ge.PGoodBad}, prob{"GE bad-to-good", ge.PBadGood},
			prob{"GE good-state loss", ge.LossGood}, prob{"GE bad-state loss", ge.LossBad})
	}
	for _, pr := range probs {
		if !(pr.v >= 0 && pr.v <= 1) {
			return fmt.Errorf("faults: %s probability %v outside [0, 1]", pr.name, pr.v)
		}
	}
	if p.ReorderDelay < 0 || p.JitterMax < 0 {
		return fmt.Errorf("faults: negative delay (reorder %v, jitter %v)", p.ReorderDelay, p.JitterMax)
	}
	for i, o := range p.Outages {
		if o.Start < 0 || o.Duration < 0 {
			return fmt.Errorf("faults: outage %d at %v for %v: start and duration must not be negative", i, o.Start, o.Duration)
		}
	}
	return nil
}

// stage seed derivation: one stream per (plan seed, direction, stage slot).
func stageSeed(seed int64, dir Direction, slot int64) int64 {
	return seed*1000003 + int64(dir)*101 + slot
}

// Build constructs the impairment chain for one direction, deterministically
// seeded from seed. A nil or empty plan yields an empty chain (pure
// pass-through). The chain's downstream defaults to PassQdisc; compose it
// with a throttle via SetNext.
func (p *Plan) Build(k *simtime.Kernel, dir Direction, seed int64) *Chain {
	var stages []Stage
	if p != nil {
		if p.GE != nil {
			stages = append(stages, NewGilbertElliott(stageSeed(seed, dir, 1), *p.GE))
		}
		if p.LossProb > 0 {
			stages = append(stages, NewIIDLoss(stageSeed(seed, dir, 2), p.LossProb))
		}
		if p.CorruptProb > 0 {
			stages = append(stages, NewCorrupter(stageSeed(seed, dir, 3), p.CorruptProb))
		}
		if p.DupProb > 0 {
			stages = append(stages, NewDuplicator(stageSeed(seed, dir, 4), p.DupProb))
		}
		if p.ReorderProb > 0 {
			d := p.ReorderDelay
			if d <= 0 {
				d = 30 * time.Millisecond
			}
			stages = append(stages, NewReorderer(k, stageSeed(seed, dir, 5), p.ReorderProb, d))
		}
		if p.JitterMax > 0 {
			stages = append(stages, NewJitter(k, stageSeed(seed, dir, 6), p.JitterMax))
		}
	}
	return NewChain(stages...)
}
