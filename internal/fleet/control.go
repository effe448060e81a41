package fleet

import (
	"sort"
	"sync"
	"time"

	"repro/internal/apps/serversim"
	"repro/internal/obs"
	"repro/internal/remedy"
	"repro/internal/simtime"
)

// This file is the fleet's runtime-control surface: typed remedy.Actions
// applied to live UEs at kernel-safe control points, identically on one
// shard and across lockstep shards.
//
// Control hooks fire between kernel events (simtime.Kernel.SetControlHook),
// so a hook that decides nothing schedules nothing — a run with an idle or
// observe-only controller is byte-identical to a controller-free run. When a
// hook does act, the action is applied through a scheduled kernel event
// after ActionLatency (the control loop's sense-decide-actuate delay), so
// actuation composes with the event queue like any other model behaviour.
//
// In a sharded fleet each shard's kernel carries its own hook and a hook
// invocation only sees that shard's UEs, so per-UE decisions stay
// shard-local and goroutine-safe. Actions targeting a UE on another shard
// (the cross-cell coordination path) ride the lockstep epoch barrier: they
// are parked in a mailbox, canonically sorted by the serial coordinator,
// and scheduled on the target kernel at the epoch boundary — the same
// staleness bound the airtime exchange already obeys, so byte-determinism
// at any worker count is preserved.

// Remedy defaults, resolved by RemedySpec.resolved.
const (
	defaultRemedyInterval = 2 * time.Second
	defaultActionLatency  = 100 * time.Millisecond
	defaultActionEnergyJ  = 0.15
)

// RemedySpec enables the built-in root-cause-aware remediation controller
// (internal/remedy) on a scenario. The zero field values select the noted
// defaults.
type RemedySpec struct {
	// Interval is the control period (default 2s).
	Interval time.Duration
	// ActionLatency is the sense-decide-actuate delay between a decision
	// and its effect landing on the UE (default 100ms).
	ActionLatency time.Duration
	// Cooldown is the minimum gap between actions on one UE (default 10s).
	Cooldown time.Duration
	// MaxActionsPerUE is the per-UE intervention budget (default 4).
	MaxActionsPerUE int
	// EnergyPerActionJ charges each applied intervention to the UE's energy
	// account — control traffic and connection churn are not free
	// (default 0.15 J).
	EnergyPerActionJ float64
	// EdgeDelay is the one-way core latency to the edge replicas after a
	// server switch (default: a quarter of the cell's core delay).
	EdgeDelay time.Duration
	// Observe runs the full diagnosis pipeline without actuating — the
	// no-op controller, byte-invisible to the simulation.
	Observe bool
	// Actuator gates (all enabled by default).
	DisableServerSwitch bool
	DisableABR          bool
	DisableRRCRetune    bool
	// Cells restricts remediation to UEs homed on these topology cells
	// (empty = every UE). Only meaningful in multi-cell scenarios.
	Cells []int
}

// resolved returns a copy with defaults filled in.
func (s RemedySpec) resolved() RemedySpec {
	if s.Interval <= 0 {
		s.Interval = defaultRemedyInterval
	}
	if s.ActionLatency <= 0 {
		s.ActionLatency = defaultActionLatency
	}
	if s.EnergyPerActionJ == 0 {
		s.EnergyPerActionJ = defaultActionEnergyJ
	}
	return s
}

// Intervention records one remediation applied (or attempted) on a UE.
type Intervention struct {
	UE        int
	Kind      remedy.ActionKind
	Layer     remedy.Layer // diagnosed root-cause layer
	DecidedAt simtime.Time // control tick that issued the action
	AppliedAt simtime.Time // when the actuator ran (DecidedAt + latency)
	Note      string       // evidence summary from the controller
	EnergyJ   float64      // energy charged for the actuation
	// Applied is false when the actuator found nothing to do (e.g. an ABR
	// step with no active playback by the time the action landed).
	Applied bool
}

// ControlHook is a callback fired at control ticks with the UEs it may
// inspect and actuate. Hooks run between kernel events with the kernel
// clock at the tick time; they must not block and must only touch the UEs
// they are handed (plus ControlTick.Apply for any UE).
type ControlHook func(t ControlTick)

// ControlTick is one control-hook invocation.
type ControlTick struct {
	At simtime.Time
	// Shard is the firing shard; UEs are the devices hosted on that
	// shard's kernel (every UE in a one-cell fleet).
	Shard int
	UEs   []*UE
	f     *Fleet
}

// Apply schedules action a on ue after the fleet's action latency. A UE on
// the tick's own kernel gets a normal scheduled event; a UE on another
// shard is reached through the epoch-barrier mailbox, landing at the next
// lockstep boundary plus latency — within the same X2-latency staleness
// bound every other cross-shard effect obeys.
func (t ControlTick) Apply(ue *UE, a remedy.Action) {
	lat := t.f.remedySpecResolved().ActionLatency
	if ue.Shard == t.Shard {
		decidedAt := t.At
		ue.K.At(t.At+lat, func() { t.f.applyAction(ue, a, decidedAt) })
		return
	}
	t.f.mailMu.Lock()
	t.f.mailbox = append(t.f.mailbox, mailEntry{ue: ue, a: a, decidedAt: t.At})
	t.f.mailMu.Unlock()
}

// mailEntry is one cross-shard action parked until the epoch barrier.
type mailEntry struct {
	ue        *UE
	a         remedy.Action
	decidedAt simtime.Time
}

// ctlHook is one registered hook with its firing period.
type ctlHook struct {
	every simtime.Time
	fn    ControlHook
}

// controlState is the fleet's runtime-control bookkeeping, embedded in
// Fleet.
type controlState struct {
	hooks        []ctlHook
	ctlInstalled bool
	remCtl       *remedy.Controller

	mailMu  sync.Mutex
	mailbox []mailEntry
}

// OnControl registers a control hook fired every interval of virtual time
// (must be positive). Call it after Build and before RunTo. Multiple hooks
// may coexist; each fires at multiples of its own interval (the kernel hook
// runs at the GCD of all intervals).
func (f *Fleet) OnControl(interval time.Duration, fn ControlHook) {
	if interval <= 0 {
		panic("fleet: control interval must be positive")
	}
	f.hooks = append(f.hooks, ctlHook{every: simtime.Time(interval), fn: fn})
	f.ctlInstalled = false // re-resolve the GCD on next RunTo
}

// ScheduleAction schedules one remedy action on UE ueIndex at virtual time
// at — the scripted-intervention entry point (experiments injecting a known
// remediation at a known time). Call between Build and RunTo.
func (f *Fleet) ScheduleAction(at time.Duration, ueIndex int, a remedy.Action) {
	ue := f.UEs[ueIndex]
	ue.K.At(simtime.Time(at), func() { f.applyAction(ue, a, simtime.Time(at)) })
}

// remedySpecResolved returns the scenario's remedy spec with defaults, or
// all-default when the scenario has none (ScheduleAction on a plain fleet).
func (f *Fleet) remedySpecResolved() RemedySpec {
	if f.scen.Remedy != nil {
		return f.scen.Remedy.resolved()
	}
	return RemedySpec{}.resolved()
}

// installControl arms the kernel control hooks. Idempotent per hook set;
// called by RunTo so hooks registered between runs take effect.
func (f *Fleet) installControl() {
	if f.scen.Remedy != nil && f.remCtl == nil {
		f.installRemedy()
	}
	if f.ctlInstalled {
		return
	}
	f.ctlInstalled = true
	if len(f.hooks) == 0 {
		return
	}
	period := f.hooks[0].every
	for _, h := range f.hooks[1:] {
		period = gcdTime(period, h.every)
	}
	for s, sh := range f.Shards {
		s, sh := s, sh
		sh.K.SetControlHook(period, func(now simtime.Time) {
			f.fireHooks(s, sh.UEs, now)
		})
	}
}

func gcdTime(a, b simtime.Time) simtime.Time {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// fireHooks invokes every hook whose period divides now.
func (f *Fleet) fireHooks(shard int, ues []*UE, now simtime.Time) {
	for _, h := range f.hooks {
		if now%h.every == 0 {
			h.fn(ControlTick{At: now, Shard: shard, UEs: ues, f: f})
		}
	}
}

// installRemedy registers the built-in remediation controller as a control
// hook — the same public surface any custom controller would use.
func (f *Fleet) installRemedy() {
	spec := f.scen.Remedy.resolved()
	f.remCtl = remedy.NewController(remedy.Config{
		Interval:            spec.Interval,
		Cooldown:            spec.Cooldown,
		MaxActionsPerUE:     spec.MaxActionsPerUE,
		Observe:             spec.Observe,
		DisableServerSwitch: spec.DisableServerSwitch,
		DisableABR:          spec.DisableABR,
		DisableRRCRetune:    spec.DisableRRCRetune,
	}, len(f.UEs))
	var cellSet map[int]bool
	if len(spec.Cells) > 0 {
		cellSet = make(map[int]bool, len(spec.Cells))
		for _, c := range spec.Cells {
			cellSet[c] = true
		}
	}
	f.OnControl(spec.Interval, func(t ControlTick) {
		// The controller's per-UE state lives in a flat slice indexed by
		// UE, and each shard's hook only presents its own UEs, so
		// concurrent shard goroutines never touch the same element.
		for _, ue := range t.UEs {
			if cellSet != nil && !cellSet[ue.HomeCell] {
				continue
			}
			if a := f.remCtl.Decide(controlSignal(ue, t.At)); a != nil {
				t.Apply(ue, *a)
			}
		}
	})
}

// controlSignal samples one UE's live QoE state into the controller's
// input. Every read is a plain accessor — sampling schedules nothing and
// allocates nothing, keeping the control plane byte-invisible.
func controlSignal(ue *UE, now simtime.Time) remedy.Signal {
	sig := remedy.Signal{
		UE:             ue.Index,
		At:             time.Duration(now),
		VideoActive:    ue.YouTube.Active(),
		VideoStalled:   ue.YouTube.Stalled(),
		VideoStalls:    ue.YouTube.TotalStalls(),
		VideoRung:      ue.YouTube.QualityRung(),
		PageLoadAge:    ue.Browser.ActiveLoadAge(now),
		LoadFailures:   ue.Browser.LoadFailures,
		RRCTransitions: ue.Net.Bearer.RRC().Transitions(),
		ServerSwitched: ue.edgeActive,
		DemotionScale:  ue.Net.Bearer.RRC().DemotionScale(),
	}
	if ue.FaultUL != nil {
		sig.RadioDrops += ue.FaultUL.Dropped()
	}
	if ue.FaultDL != nil {
		sig.RadioDrops += ue.FaultDL.Dropped()
	}
	if ue.Roamer != nil {
		sig.Handovers = ue.Roamer.Handovers()
	}
	return sig
}

// deliverCrossShard drains the epoch mailbox at a lockstep barrier: entries
// are sorted canonically (shard goroutines appended them in racey order)
// and scheduled on their target kernels at the epoch boundary plus action
// latency. Runs serially on the coordinator.
func (f *Fleet) deliverCrossShard(end simtime.Time) {
	f.mailMu.Lock()
	box := f.mailbox
	f.mailbox = nil
	f.mailMu.Unlock()
	if len(box) == 0 {
		return
	}
	sort.Slice(box, func(i, j int) bool {
		a, b := box[i], box[j]
		if a.ue.Index != b.ue.Index {
			return a.ue.Index < b.ue.Index
		}
		if a.a.Kind != b.a.Kind {
			return a.a.Kind < b.a.Kind
		}
		if a.decidedAt != b.decidedAt {
			return a.decidedAt < b.decidedAt
		}
		return a.a.Note < b.a.Note
	})
	lat := f.remedySpecResolved().ActionLatency
	for _, m := range box {
		m := m
		m.ue.K.At(end+lat, func() { f.applyAction(m.ue, m.a, m.decidedAt) })
	}
}

// applyAction runs one actuator on a UE (inside a scheduled kernel event),
// records the Intervention, charges energy, and traces the control loop as
// a span from decision to actuation.
func (f *Fleet) applyAction(ue *UE, a remedy.Action, decidedAt simtime.Time) {
	spec := f.remedySpecResolved()
	now := ue.K.Now()
	applied := false
	switch a.Kind {
	case remedy.ActionServerSwitch:
		applied = f.switchToEdge(ue, spec)
	case remedy.ActionABRStepDown:
		applied = ue.YouTube.StepQuality(1)
	case remedy.ActionABRStepUp:
		applied = ue.YouTube.StepQuality(-1)
	case remedy.ActionRRCRetune:
		ue.Net.Bearer.RRC().SetDemotionScale(a.Scale)
		applied = true
	}
	var energy float64
	if applied {
		energy = spec.EnergyPerActionJ
		ue.RemedyEnergyJ += energy
	}
	ue.Interventions = append(ue.Interventions, Intervention{
		UE: ue.Index, Kind: a.Kind, Layer: a.Diagnosis,
		DecidedAt: decidedAt, AppliedAt: now,
		Note: a.Note, EnergyJ: energy, Applied: applied,
	})
	if ue.Trace != nil {
		ue.Trace.Emit(obs.TraceEvent{
			Kind: obs.KindSpan, Layer: obs.LayerApp,
			Name:  "remedy:" + a.Kind.String(),
			Start: time.Duration(decidedAt), End: time.Duration(now),
			ID: ue.Trace.NewID(),
			Attrs: []obs.Attr{
				{Key: "layer", Val: a.Diagnosis.String()},
				{Key: "note", Val: a.Note},
				{Key: "applied", Val: boolStr(applied)},
			},
		})
	}
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// switchToEdge re-homes the UE's YouTube and web flows onto the edge
// replica cluster: install the replicas (first switch only; installing
// schedules no events), repoint the UE's DNS zone, flush the resolver
// cache, shorten the core path, and restart in-flight transfers so they
// re-resolve onto the edge. Idempotent per UE.
func (f *Fleet) switchToEdge(ue *UE, spec RemedySpec) bool {
	if ue.edgeActive {
		return false
	}
	cl := ue.Servers
	if cl.EdgeYouTube == nil {
		serversim.InstallEdge(ue.Net, cl)
	}
	edgeDelay := spec.EdgeDelay
	if edgeDelay <= 0 {
		edgeDelay = ue.Net.CoreDelay / 4
	}
	cl.DNS.Zone[serversim.YouTubeHost] = serversim.EdgeYouTubeAddr
	cl.DNS.Zone[serversim.WebHostBase] = serversim.EdgeWebAddr
	ue.Resolver.FlushCache()
	ue.Net.SetPathDelay(serversim.EdgeYouTubeAddr, edgeDelay)
	ue.Net.SetPathDelay(serversim.EdgeWebAddr, edgeDelay)
	ue.edgeActive = true
	ue.YouTube.Repath()
	ue.Browser.Repath()
	return true
}
