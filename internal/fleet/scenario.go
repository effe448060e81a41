// Package fleet simulates many UEs sharing a cell: each device gets its
// own RRC machine, network stack, apps, behavior log, and observability
// scope, while a cell-level scheduler multiplexes RLC service among the
// active bearers — so cross-UE contention, queueing delay, and RRC
// promotion storms emerge from the model instead of being scripted. Every
// fleet runs as shards, one event kernel per cell; a one-cell fleet is a
// single shard, a grid of cells advances its shards in lockstep.
//
// The package also owns the Scenario description that replaced the flat
// testbed.Options: a Scenario composes a cell, a list of UE specs, and a
// workload, and is consumed both by fleet.Run and by the single-UE
// testbed.Bed (a thin N=1 wrapper around one fleet UE).
package fleet

import (
	"fmt"
	"time"

	"repro/internal/apps/browser"
	"repro/internal/apps/facebook"
	"repro/internal/apps/youtube"
	"repro/internal/faults"
	"repro/internal/radio"
)

// CellSpec describes the shared cell: the radio technology every bearer
// uses, the scheduling policy dividing the air interface, and the core
// latency behind the base station.
type CellSpec struct {
	// Profile is the radio profile (default: LTE). All UEs in a cell share
	// one technology, as on a real carrier.
	Profile *radio.Profile
	// Policy selects the cell scheduler (round-robin by default).
	Policy radio.SchedPolicy
	// CoreDelay overrides the one-way base-station-to-server latency
	// (zero = technology default).
	CoreDelay time.Duration
}

// UESpec describes one device in the fleet.
type UESpec struct {
	// Name labels the UE in reports; empty defaults to "ue<i>".
	Name string
	// Gain is the UE's link-quality multiplier on the cell's nominal rate
	// (1 or 0 = nominal). Must not be negative.
	Gain float64
	// ThrottleBps installs per-UE carrier rate limiting on the downlink
	// (0 = none): shaping on 3G, policing on LTE — the §7.5 mechanisms.
	ThrottleBps float64
	// Faults injects per-UE network impairments; all randomness derives
	// from the scenario seed, so impaired fleets stay reproducible.
	Faults *faults.Plan
	// StartAt delays this UE's workload start (staggered arrivals).
	StartAt time.Duration
	// Cohort labels this UE's population segment ("premium", "edge-of-cell")
	// in emitted QoE events; empty UEs group under the empty cohort key.
	Cohort string

	Facebook facebook.Config // zero value = facebook.DefaultConfig()
	YouTube  youtube.Config
	Browser  browser.Profile // zero value = Chrome

	// DisableQxDM skips radio logging; DisablePcap skips packet capture
	// (large fleets that only need app-layer QoE).
	DisableQxDM bool
	DisablePcap bool
}

// TopologySpec describes a multi-cell layout. Nil (the default) or
// Cells == 1 is one shared cell: a single shard on one kernel, with no
// grid. Cells > 1 shards the simulation one kernel per cell, advanced in
// parallel under conservative-lookahead synchronization with the X2
// latency as the safe window.
type TopologySpec struct {
	// Cells is the number of base-station sites (grid layout). UE i homes
	// on cell i mod Cells.
	Cells int
	// SpacingM is the inter-site distance in meters (0 = 500m).
	SpacingM float64
	// X2Latency is the inter-cell coordination latency — the handover
	// data-forwarding delay and the sharded run's lookahead window
	// (0 = 10ms).
	X2Latency time.Duration
	// PathLossExp overrides the path-loss exponent (0 = 2.6).
	PathLossExp float64
}

// MobilitySpec enables per-UE mobility across a multi-cell topology:
// deterministic random-waypoint movement, signal-strength measurement
// reports, A3-style connected-mode handover, and idle-mode reselection.
type MobilitySpec struct {
	// SpeedMps is the UE speed in meters/second (walking ~1.4, driving ~14).
	SpeedMps float64
	// Interval is the measurement report period (0 = 200ms).
	Interval time.Duration
	// Hysteresis is the neighbor/serving gain ratio arming a handover
	// (0 = 1.25); TTT is the time-to-trigger it must hold (0 = 480ms).
	Hysteresis float64
	TTT        time.Duration
	// Interruption is the connected-mode handover's control-plane break
	// (0 = 50ms); the data plane stalls for Interruption + X2 forwarding.
	Interruption time.Duration
}

// Scenario is a complete, declarative description of a fleet run: one cell
// (or a topology of cells), N UEs, and the workload that drives them. It
// replaces the organically grown flat option set (faults, throttle, obs
// toggles scattered across fields and methods) with one composable value
// that both testbed.New and fleet.Run consume.
type Scenario struct {
	Seed int64
	Cell CellSpec
	// Topology, when non-nil with Cells > 1, replaces the single shared
	// cell with a grid of cells, one event kernel per cell (sharded run).
	// Every cell uses the same CellSpec profile and policy.
	Topology *TopologySpec
	// Mobility, when non-nil, moves every UE through the topology and
	// enables handover/reselection. Requires a multi-cell Topology.
	Mobility *MobilitySpec
	UEs      []UESpec
	// Workload drives every UE (staggered by UESpec.StartAt). Nil means the
	// caller drives the UEs itself (the legacy Bed pattern).
	Workload Workload
	// Remedy, when non-nil, runs the built-in root-cause-aware remediation
	// controller (internal/remedy) over the fleet at control ticks. An
	// Observe-only spec diagnoses without actuating and is byte-invisible
	// to the run.
	Remedy *RemedySpec
}

// UniformUEs returns n identical UE specs with gain 1 — the common
// homogeneous-fleet case.
func UniformUEs(n int) []UESpec {
	ues := make([]UESpec, n)
	return ues
}

// SpreadGains assigns a deterministic gain spread across the specs: gains
// step linearly from lo to hi in attach order, modeling UEs at different
// distances from the base station. The slice is returned for chaining.
func SpreadGains(ues []UESpec, lo, hi float64) []UESpec {
	if len(ues) == 1 {
		ues[0].Gain = (lo + hi) / 2
		return ues
	}
	for i := range ues {
		ues[i].Gain = lo + (hi-lo)*float64(i)/float64(len(ues)-1)
	}
	return ues
}

// validate rejects malformed scenarios with a descriptive error.
func (s *Scenario) validate() error {
	if len(s.UEs) == 0 {
		return fmt.Errorf("fleet: scenario has no UEs")
	}
	for i, ue := range s.UEs {
		if ue.Gain < 0 {
			return fmt.Errorf("fleet: UE %d has negative gain %v", i, ue.Gain)
		}
		if ue.ThrottleBps < 0 {
			return fmt.Errorf("fleet: UE %d has negative throttle %v bps", i, ue.ThrottleBps)
		}
		if ue.StartAt < 0 {
			return fmt.Errorf("fleet: UE %d has negative start offset %v", i, ue.StartAt)
		}
	}
	if s.Cell.CoreDelay < 0 {
		return fmt.Errorf("fleet: negative core delay %v", s.Cell.CoreDelay)
	}
	if t := s.Topology; t != nil {
		if t.Cells < 1 {
			return fmt.Errorf("fleet: topology needs at least 1 cell, got %d", t.Cells)
		}
		if t.SpacingM < 0 {
			return fmt.Errorf("fleet: negative cell spacing %v", t.SpacingM)
		}
		if t.X2Latency < 0 {
			return fmt.Errorf("fleet: negative X2 latency %v", t.X2Latency)
		}
		if t.PathLossExp < 0 {
			return fmt.Errorf("fleet: negative path-loss exponent %v", t.PathLossExp)
		}
		if t.Cells == 1 && (t.SpacingM > 0 || t.X2Latency > 0 || t.PathLossExp > 0) {
			// A 1-cell topology is one shard with no grid, where these
			// knobs would be silently meaningless — reject instead.
			return fmt.Errorf("fleet: 1-cell topology ignores spacing/X2/path-loss settings; use Cells > 1 or drop them")
		}
	}
	if m := s.Mobility; m != nil {
		if s.cellCount() < 2 {
			return fmt.Errorf("fleet: mobility requires a multi-cell topology (got %d cell(s))", s.cellCount())
		}
		if m.SpeedMps < 0 {
			return fmt.Errorf("fleet: negative UE speed %v m/s", m.SpeedMps)
		}
		if m.Interval < 0 || m.TTT < 0 || m.Interruption < 0 {
			return fmt.Errorf("fleet: negative mobility timing (interval %v, TTT %v, interruption %v)", m.Interval, m.TTT, m.Interruption)
		}
		if m.Hysteresis < 0 {
			return fmt.Errorf("fleet: negative handover hysteresis %v", m.Hysteresis)
		}
	}
	if r := s.Remedy; r != nil {
		if r.Interval < 0 || r.ActionLatency < 0 || r.Cooldown < 0 || r.EdgeDelay < 0 {
			return fmt.Errorf("fleet: negative remedy timing (interval %v, latency %v, cooldown %v, edge delay %v)",
				r.Interval, r.ActionLatency, r.Cooldown, r.EdgeDelay)
		}
		if r.MaxActionsPerUE < 0 {
			return fmt.Errorf("fleet: negative remedy action budget %d", r.MaxActionsPerUE)
		}
		if r.EnergyPerActionJ < 0 {
			return fmt.Errorf("fleet: negative remedy action energy %v J", r.EnergyPerActionJ)
		}
		if r.DisableServerSwitch && r.DisableABR && r.DisableRRCRetune && !r.Observe {
			return fmt.Errorf("fleet: remedy enabled with every actuator disabled; set Observe for a measure-only run")
		}
		for _, c := range r.Cells {
			if c < 0 || c >= s.cellCount() {
				return fmt.Errorf("fleet: remedy targets cell %d, but the scenario has %d cell(s)", c, s.cellCount())
			}
		}
	}
	return nil
}

// cellCount returns the number of cells the scenario simulates.
func (s *Scenario) cellCount() int {
	if s.Topology == nil {
		return 1
	}
	return s.Topology.Cells
}

// options collects the run-level functional options.
type options struct {
	trace    bool
	metrics  bool
	profiler bool
	horizon  time.Duration
	workers  int
}

// Option is a run-level knob, orthogonal to the Scenario description:
// observability sinks, shard workers, the time horizon.
type Option func(*options)

// DefaultHorizon bounds a fleet run when WithHorizon is not given.
const DefaultHorizon = 30 * time.Minute

func resolveOptions(opts []Option) options {
	o := options{horizon: DefaultHorizon}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithTrace attaches a per-UE cross-layer trace bus to every UE.
func WithTrace() Option { return func(o *options) { o.trace = true } }

// WithMetrics attaches a per-UE metrics registry to every UE.
func WithMetrics() Option { return func(o *options) { o.metrics = true } }

// WithProfiler attaches the wall-clock kernel profiler (non-deterministic
// output; for performance work only).
func WithProfiler() Option { return func(o *options) { o.profiler = true } }

// WithHorizon bounds the virtual-time length of the run.
func WithHorizon(d time.Duration) Option {
	return func(o *options) { o.horizon = d }
}

// WithWorkers caps the goroutines advancing shards in a multi-cell run
// (<= 0 = GOMAXPROCS, 1 = fully serial). Worker count affects wall clock
// only — results are byte-identical at any setting. No-op for a one-cell
// fleet, whose single shard runs on the calling goroutine.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}
