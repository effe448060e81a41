// Package testbed assembles the full simulated lab that QoE Doctor runs
// against: a device (UI screens + network stack + cellular bearer), the
// server cluster, and the two data collectors (pcap on the device's IP
// layer, QxDM on the radio). Experiments and examples construct a Bed,
// connect the app under test, and hand the collected logs to the analyzer.
//
// A Bed is a thin wrapper over a one-UE fleet: Options translates to a
// one-UE fleet.Scenario, which builds as a single shard on one kernel, and
// the Bed embeds the resulting fleet.UE. A Bed and a 1-UE fleet therefore
// share one assembly and produce the same bytes.
package testbed

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/apps/browser"
	"repro/internal/apps/facebook"
	"repro/internal/apps/youtube"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/radio"
)

// DeviceAddr is the device's address on the simulated carrier network.
var DeviceAddr = netip.MustParseAddr("10.20.0.2")

// Options configures a Bed. It is the flat, single-UE ancestor of
// fleet.Scenario; New translates it to a one-UE scenario.
type Options struct {
	Seed    int64
	Profile *radio.Profile // default: LTE
	// CoreDelay overrides the one-way base-station-to-server latency
	// (zero = technology default).
	CoreDelay time.Duration

	Facebook facebook.Config // zero value = facebook.DefaultConfig()
	YouTube  youtube.Config
	Browser  browser.Profile // zero value = Chrome

	// DisableQxDM skips radio logging (large experiments that only need
	// app/transport data).
	DisableQxDM bool
	// DisablePcap skips packet capture.
	DisablePcap bool

	// Faults injects network impairments (loss, reordering, duplication,
	// corruption, jitter, bearer outages). All fault randomness derives
	// from Seed, so impaired runs stay exactly reproducible. Nil or empty
	// means a perfect network.
	Faults *faults.Plan

	// ThrottleBps installs carrier downlink rate limiting at build time
	// (0 = none) — the declarative form of the deprecated Throttle method.
	ThrottleBps float64

	// Remedy enables the fleet's built-in remediation controller on the
	// single UE (nil = no controller). Drive the bed through Bed.RunTo so
	// the control hooks are armed.
	Remedy *fleet.RemedySpec

	// Trace attaches the cross-layer trace bus (Bed.Trace): every layer
	// emits virtual-time-stamped spans and instants correlated by user
	// action. Off by default — detached instrumentation costs only nil
	// checks.
	Trace bool
	// Metrics attaches the metrics registry (Bed.Metrics).
	Metrics bool
	// Profiler attaches a wall-clock kernel callback profiler
	// (Bed.Profiler). Unlike the trace it measures real time, so its output
	// is not deterministic.
	Profiler bool
}

// Scenario converts the flat options to their one-UE fleet scenario.
func (o Options) Scenario() fleet.Scenario {
	return fleet.Scenario{
		Seed: o.Seed,
		Cell: fleet.CellSpec{Profile: o.Profile, CoreDelay: o.CoreDelay},
		UEs: []fleet.UESpec{{
			Facebook:    o.Facebook,
			YouTube:     o.YouTube,
			Browser:     o.Browser,
			Faults:      o.Faults,
			ThrottleBps: o.ThrottleBps,
			DisableQxDM: o.DisableQxDM,
			DisablePcap: o.DisablePcap,
		}},
		Remedy: o.Remedy,
	}
}

// Bed is one assembled lab instance: a single fleet UE plus its kernel.
// The embedded UE contributes the device fields (K, Net, Servers, apps,
// collectors, obs sinks) and the Session/Analyze/CloseObs/Throttle
// behaviour.
type Bed struct {
	*fleet.UE
	f *fleet.Fleet
}

// New assembles a Bed, reporting malformed options as an error instead of
// panicking mid-assembly.
func New(opts Options) (*Bed, error) {
	f, err := fleet.Build(opts.Scenario(), fleetOptions(opts)...)
	if err != nil {
		return nil, err
	}
	return &Bed{UE: f.UEs[0], f: f}, nil
}

// Fleet returns the underlying one-UE fleet (report aggregation, golden
// comparisons against multi-UE runs).
func (b *Bed) Fleet() *fleet.Fleet { return b.f }

// RunTo advances the bed to horizon through the fleet's control-aware run
// path: any configured remediation controller or OnControl hooks are armed
// before the kernel runs. Equivalent to b.K.RunUntil when no control is
// configured.
func (b *Bed) RunTo(horizon time.Duration) { b.f.RunTo(horizon) }

// OnControl registers a runtime-control hook on the bed's fleet (fired at
// interval multiples during RunTo), giving single-UE experiments the same
// control surface as fleet runs.
func (b *Bed) OnControl(interval time.Duration, fn fleet.ControlHook) {
	b.f.OnControl(interval, fn)
}

// NewScenario assembles a Bed directly from a one-UE fleet scenario — the
// composable form of New for callers already speaking the Scenario API.
func NewScenario(scen fleet.Scenario, opts ...fleet.Option) (*Bed, error) {
	if len(scen.UEs) != 1 {
		return nil, fmt.Errorf("testbed: scenario has %d UEs, want exactly 1 (use fleet.Run)", len(scen.UEs))
	}
	f, err := fleet.Build(scen, opts...)
	if err != nil {
		return nil, err
	}
	return &Bed{UE: f.UEs[0], f: f}, nil
}

// MustNew is New for tests and examples: it panics on error.
func MustNew(opts Options) *Bed {
	b, err := New(opts)
	if err != nil {
		panic(err)
	}
	return b
}

// fleetOptions maps the flat obs toggles to fleet run options.
func fleetOptions(opts Options) []fleet.Option {
	var fo []fleet.Option
	if opts.Trace {
		fo = append(fo, fleet.WithTrace())
	}
	if opts.Metrics {
		fo = append(fo, fleet.WithMetrics())
	}
	if opts.Profiler {
		fo = append(fo, fleet.WithProfiler())
	}
	return fo
}

// compile-time guarantee that the embedded UE keeps satisfying the Bed
// surface: CloseObs and mid-run Throttle promote from fleet.UE
// (build-time throttling is declarative via Options.ThrottleBps).
var _ interface {
	CloseObs()
	Throttle(float64)
} = (*Bed)(nil)
