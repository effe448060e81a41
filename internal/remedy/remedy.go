// Package remedy is the root-cause-aware QoE remediation engine: a
// deterministic controller that watches per-UE QoE signals sampled at
// control ticks, diagnoses the responsible layer from analyzer-style
// evidence (link-layer loss, handover activity, RRC churn versus a clean
// path), and emits typed Actions — switch a flow to an edge server/path,
// step the ABR ladder, retune RRC inactivity timers.
//
// The package is a pure decision engine: signals in, actions out. It never
// touches the simulation directly — internal/fleet adapts live UE state
// into Signals, runs Decide at kernel-safe control points, and actuates
// the returned Actions. Everything here is integer/float arithmetic over
// the inputs with no clocks, maps-in-iteration, or randomness, so the
// controller is byte-deterministic wherever its caller is.
package remedy

import (
	"fmt"
	"time"
)

// ActionKind enumerates the actuator catalog.
type ActionKind int

const (
	// ActionServerSwitch re-homes the UE's flows onto the edge replica
	// cluster: repoint DNS, flush the resolver cache, reset connection
	// pools, and resume in-flight streams over the shorter path.
	ActionServerSwitch ActionKind = iota
	// ActionABRStepDown moves the video player one rung down the ABR
	// ladder (lower bitrate), resuming the stream mid-playback.
	ActionABRStepDown
	// ActionABRStepUp moves one rung back up after a sustained healthy
	// streak.
	ActionABRStepUp
	// ActionRRCRetune scales the RRC demotion (inactivity) timers by
	// Action.Scale, trading idle energy for fewer promotion delays when
	// the state machine is thrashing.
	ActionRRCRetune
)

func (k ActionKind) String() string {
	switch k {
	case ActionServerSwitch:
		return "server-switch"
	case ActionABRStepDown:
		return "abr-step-down"
	case ActionABRStepUp:
		return "abr-step-up"
	case ActionRRCRetune:
		return "rrc-retune"
	}
	return fmt.Sprintf("ActionKind(%d)", int(k))
}

// Layer is the diagnosed root-cause layer behind an action, mirroring the
// analyzer's attribution split.
type Layer int

const (
	LayerApp Layer = iota
	LayerRadio
	LayerTransport
	LayerServer
)

func (l Layer) String() string {
	switch l {
	case LayerApp:
		return "app"
	case LayerRadio:
		return "radio"
	case LayerTransport:
		return "transport"
	case LayerServer:
		return "server"
	}
	return fmt.Sprintf("Layer(%d)", int(l))
}

// Action is one typed remediation the controller wants applied to a UE.
type Action struct {
	UE   int
	Kind ActionKind
	// Scale parameterizes ActionRRCRetune (demotion-timer multiplier).
	Scale float64
	// Diagnosis is the layer the controller blames; Note is a short
	// human-readable evidence summary for reports.
	Diagnosis Layer
	Note      string
}

// Signal is one control-tick snapshot of a UE's live QoE state. Counter
// fields are cumulative since the start of the run; the controller keeps
// the previous snapshot per UE and works on deltas.
type Signal struct {
	UE int
	At time.Duration

	// Video player state.
	VideoActive  bool // a playback is in progress
	VideoStalled bool // currently rebuffering
	VideoStalls  int  // cumulative rebuffer stalls
	VideoRung    int  // current ABR ladder rung (0 = native quality)

	// Browser state.
	PageLoadAge  time.Duration // age of the in-flight page load (0 = none)
	LoadFailures int           // cumulative abandoned loads

	// Radio/transport evidence.
	RRCTransitions int     // cumulative RRC state changes
	RadioDrops     int     // cumulative link-layer (fault-chain) drops
	Handovers      int     // cumulative connected-mode handovers
	ServerSwitched bool    // already re-homed onto the edge cluster
	DemotionScale  float64 // current RRC demotion-timer scale (0 or 1 = untouched)
}

// Interval is the control period: the fleet samples every UE and calls
// Decide once per Interval of virtual time.
const Interval = 2 * time.Second

// The controller's fixed policy.
const (
	cooldown        = 10 * time.Second // min gap between actions on one UE
	maxActionsPerUE = 4                // intervention budget per UE
	// pageStallAfter marks a page load as stalled once it has been in
	// flight this long.
	pageStallAfter = 6 * time.Second
	// rrcThrashPerTick RRC transitions inside one control interval read as
	// state-machine thrash.
	rrcThrashPerTick = 6
	// retuneScale is the demotion-timer multiplier ActionRRCRetune applies.
	retuneScale = 2
	// recoverTicks healthy ticks in a row step the ABR ladder back up.
	recoverTicks = 8
	// maxRung bounds how far down the ladder the controller will step: the
	// bottom rung of the standard 3-rung ladder.
	maxRung = 2
)

// Burn-rate fold windows (in control ticks): the controller alerts when
// the short window is mostly bad AND the long window shows sustained
// badness — the two-window SLO burn pattern, sized for a 2s tick.
const (
	burnShortTicks = 3
	burnLongTicks  = 15
)

// ueState is the controller's per-UE memory. States live in a flat slice
// indexed by UE so concurrent shards touching disjoint UEs never share a
// map header.
type ueState struct {
	prev     Signal
	havePrev bool
	// badRing is a ring buffer of per-tick badness bits (1 = tick was
	// bad) covering the long window; shortBad/longBad are running sums.
	badRing  [burnLongTicks]uint8
	ringPos  int
	ringLen  int
	healthy  int // consecutive healthy ticks
	actions  int
	lastAct  time.Duration
	acted    bool // any action issued yet (lastAct == 0 is ambiguous)
	retuned  bool
	switched bool
}

// Controller folds per-UE signals into remediation decisions. One
// controller serves a whole fleet; its state is a flat per-UE slice so
// shards may call Decide concurrently for disjoint UEs.
type Controller struct {
	observe bool
	ues     []ueState
}

// NewController builds a controller for numUEs devices. An observing
// controller runs the full diagnosis pipeline but suppresses every action
// — the no-op controller used to prove the control plane itself is
// byte-invisible.
func NewController(observe bool, numUEs int) *Controller {
	return &Controller{observe: observe, ues: make([]ueState, numUEs)}
}

// Decide folds one UE's control-tick signal and returns the action to
// apply, or nil. It must be called with monotonically non-decreasing
// Signal.At per UE; calls for distinct UEs may run concurrently.
func (c *Controller) Decide(sig Signal) *Action {
	if sig.UE < 0 || sig.UE >= len(c.ues) {
		return nil
	}
	st := &c.ues[sig.UE]
	prev, havePrev := st.prev, st.havePrev
	st.prev, st.havePrev = sig, true
	if !havePrev {
		return nil // first tick only establishes the baseline
	}

	// Tick badness: an ongoing rebuffer, a new stall since last tick, a
	// page load past the stall threshold, or a freshly failed load.
	bad := sig.VideoStalled ||
		sig.VideoStalls > prev.VideoStalls ||
		sig.PageLoadAge >= pageStallAfter ||
		sig.LoadFailures > prev.LoadFailures
	c.fold(st, bad)
	if bad {
		st.healthy = 0
	} else {
		st.healthy++
	}

	if c.observe {
		return nil
	}
	if st.actions >= maxActionsPerUE {
		return nil
	}
	if st.acted && sig.At-st.lastAct < cooldown {
		return nil
	}

	// Recovery path: a sustained healthy streak steps the ladder back up.
	if !bad && st.healthy >= recoverTicks && sig.VideoRung > 0 && sig.VideoActive {
		return c.issue(st, sig, Action{
			UE: sig.UE, Kind: ActionABRStepUp, Diagnosis: LayerApp,
			Note: fmt.Sprintf("healthy %d ticks at rung %d", st.healthy, sig.VideoRung),
		})
	}

	if !c.burning(st) {
		return nil
	}

	// Diagnose the responsible layer from the evidence deltas over the
	// short burn window's worth of history (prev tick vs now).
	dRRC := sig.RRCTransitions - prev.RRCTransitions
	dDrops := sig.RadioDrops - prev.RadioDrops
	dHO := sig.Handovers - prev.Handovers

	// RRC thrash: the state machine is churning hard while QoE burns —
	// promotions are eating the latency budget. Stretch the demotion
	// timers once.
	if dRRC >= rrcThrashPerTick && !st.retuned &&
		(sig.DemotionScale == 0 || sig.DemotionScale == 1) {
		st.retuned = true
		return c.issue(st, sig, Action{
			UE: sig.UE, Kind: ActionRRCRetune, Scale: retuneScale,
			Diagnosis: LayerRadio,
			Note:      fmt.Sprintf("%d RRC transitions in one tick", dRRC),
		})
	}

	// Link-layer loss or handover churn while the video burns: the radio
	// layer cannot carry the current bitrate — step the ladder down.
	if (dDrops > 0 || dHO > 0) && sig.VideoActive && sig.VideoRung < maxRung {
		return c.issue(st, sig, Action{
			UE: sig.UE, Kind: ActionABRStepDown, Diagnosis: LayerRadio,
			Note: fmt.Sprintf("%d radio drops, %d handovers this tick", dDrops, dHO),
		})
	}

	// No radio evidence but QoE still burning: blame the server/path and
	// re-home onto the edge replicas (once).
	if !sig.ServerSwitched && !st.switched {
		st.switched = true
		return c.issue(st, sig, Action{
			UE: sig.UE, Kind: ActionServerSwitch, Diagnosis: LayerServer,
			Note: "sustained stall with clean radio",
		})
	}

	// Already on the edge and still burning: the bottleneck must be the
	// shared air interface even without loss evidence (a throttled or
	// contended cell serves bytes too slowly without dropping them) —
	// step the ladder down as the last resort.
	if sig.VideoActive && sig.VideoRung < maxRung {
		return c.issue(st, sig, Action{
			UE: sig.UE, Kind: ActionABRStepDown, Diagnosis: LayerTransport,
			Note: "burning after server switch; stepping ladder",
		})
	}
	return nil
}

// issue charges the per-UE budget and stamps the cooldown clock.
func (c *Controller) issue(st *ueState, sig Signal, a Action) *Action {
	st.actions++
	st.lastAct = sig.At
	st.acted = true
	return &a
}

// fold pushes one badness bit into the two burn windows.
func (c *Controller) fold(st *ueState, bad bool) {
	var bit uint8
	if bad {
		bit = 1
	}
	st.badRing[st.ringPos] = bit
	st.ringPos = (st.ringPos + 1) % burnLongTicks
	if st.ringLen < burnLongTicks {
		st.ringLen++
	}
}

// burning reports whether both burn windows are alight: at least 2 of the
// last 3 ticks bad (fast burn) and at least a quarter of the long window
// bad (sustained burn).
func (c *Controller) burning(st *ueState) bool {
	if st.ringLen < burnShortTicks {
		return false
	}
	short, long := 0, 0
	for i := 0; i < st.ringLen; i++ {
		idx := (st.ringPos - 1 - i + 2*burnLongTicks) % burnLongTicks
		v := int(st.badRing[idx])
		if i < burnShortTicks {
			short += v
		}
		long += v
	}
	return short >= 2 && long*4 >= st.ringLen
}
