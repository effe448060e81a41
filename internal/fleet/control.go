package fleet

import (
	"time"

	"repro/internal/apps/serversim"
	"repro/internal/obs"
	"repro/internal/remedy"
	"repro/internal/simtime"
)

// This file is the fleet's closed-loop remediation: the remedy controller
// runs from each shard's kernel control hook, and the typed remedy.Actions
// it returns are applied to live UEs as scheduled kernel events.
//
// Control hooks fire between kernel events (simtime.Kernel.SetControlHook),
// so a tick that decides nothing schedules nothing — a run with an
// observe-only controller is byte-identical to a controller-free run. An
// action lands actionLatency after its tick through a kernel event, so
// actuation composes with the event queue like any other model behaviour.
//
// A shard's hook samples only the UEs homed on that shard and schedules
// only on that shard's kernel, so decisions stay shard-local and
// goroutine-safe, and a sharded run is byte-identical at any worker count.

const (
	// actionLatency is the sense-decide-actuate delay between a decision
	// and its effect landing on the UE.
	actionLatency = 100 * time.Millisecond
	// actionEnergyJ is charged to the UE's energy account per applied
	// intervention: control traffic and connection churn are not free.
	actionEnergyJ = 0.15
)

// RemedySpec enables the built-in root-cause-aware remediation controller
// (internal/remedy) on a scenario.
type RemedySpec struct {
	// Observe runs the full diagnosis pipeline without actuating — the
	// no-op controller, byte-invisible to the simulation.
	Observe bool `json:"observe"`
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

// installRemedy arms the built-in controller on every shard's control
// hook. A tick decides for the shard's UEs in UE order; the controller's
// per-UE state is a flat slice indexed by UE, so concurrent shard
// goroutines never touch the same element.
func (f *Fleet) installRemedy() {
	f.remCtl = remedy.NewController(f.scen.Remedy.Observe, len(f.UEs))
	for _, sh := range f.Shards {
		sh.K.SetControlHook(remedy.Interval, func(now simtime.Time) {
			for _, ue := range sh.UEs {
				if a := f.remCtl.Decide(controlSignal(ue, now)); a != nil {
					ue.K.At(now+actionLatency, func() { applyAction(ue, *a, now) })
				}
			}
		})
	}
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

// applyAction runs one actuator on a UE (inside a scheduled kernel event),
// records the Intervention, charges energy, and traces the control loop as
// a span from decision to actuation.
func applyAction(ue *UE, a remedy.Action, decidedAt simtime.Time) {
	now := ue.K.Now()
	applied := false
	switch a.Kind {
	case remedy.ActionServerSwitch:
		applied = switchToEdge(ue)
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
		energy = actionEnergyJ
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
func switchToEdge(ue *UE) bool {
	if ue.edgeActive {
		return false
	}
	cl := ue.Servers
	if cl.EdgeYouTube == nil {
		serversim.InstallEdge(ue.Net, cl)
	}
	edgeDelay := ue.Net.CoreDelay / 4
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
