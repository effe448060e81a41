// Package cliconfig is the shared scenario configuration behind the
// qoefleet and qoeexp command lines. Both tools grew flag sprawl naming the
// same knobs (seed, horizon, population, topology, impairment,
// remediation); this package gives them one JSON-serializable struct,
// loadable with `-config file.json` (`-config -` reads stdin), with
// command-line flags overriding whatever the file set — the file provides
// the flag defaults, so standard flag parsing implements the precedence.
package cliconfig

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("2s", "150ms"). Decoding accepts either a duration string or a bare
// number of nanoseconds.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case float64:
		*d = Duration(time.Duration(x))
		return nil
	case string:
		dur, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("cliconfig: bad duration %q: %w", x, err)
		}
		*d = Duration(dur)
		return nil
	}
	return fmt.Errorf("cliconfig: duration must be a string or number, got %T", v)
}

// Remedy configures the fleet's remediation controller from a config file.
// Field semantics match fleet.RemedySpec (zero values mean the spec's
// defaults).
type Remedy struct {
	Interval            Duration `json:"interval,omitempty"`
	ActionLatency       Duration `json:"action_latency,omitempty"`
	Cooldown            Duration `json:"cooldown,omitempty"`
	MaxActionsPerUE     int      `json:"max_actions_per_ue,omitempty"`
	EnergyPerActionJ    float64  `json:"energy_per_action_j,omitempty"`
	EdgeDelay           Duration `json:"edge_delay,omitempty"`
	Observe             bool     `json:"observe,omitempty"`
	DisableServerSwitch bool     `json:"disable_server_switch,omitempty"`
	DisableABR          bool     `json:"disable_abr,omitempty"`
	DisableRRCRetune    bool     `json:"disable_rrc_retune,omitempty"`
	Cells               []int    `json:"cells,omitempty"`
}

// Spec converts to the fleet's remedy specification.
func (r *Remedy) Spec() *fleet.RemedySpec {
	if r == nil {
		return nil
	}
	return &fleet.RemedySpec{
		Interval:            time.Duration(r.Interval),
		ActionLatency:       time.Duration(r.ActionLatency),
		Cooldown:            time.Duration(r.Cooldown),
		MaxActionsPerUE:     r.MaxActionsPerUE,
		EnergyPerActionJ:    r.EnergyPerActionJ,
		EdgeDelay:           time.Duration(r.EdgeDelay),
		Observe:             r.Observe,
		DisableServerSwitch: r.DisableServerSwitch,
		DisableABR:          r.DisableABR,
		DisableRRCRetune:    r.DisableRRCRetune,
		Cells:               r.Cells,
	}
}

// Scenario is the shared CLI scenario configuration. Zero values mean "not
// set" — each tool applies its own defaults after loading, and registers
// its flags with the loaded values as defaults so explicit flags win.
type Scenario struct {
	Seed    int64    `json:"seed,omitempty"`
	Horizon Duration `json:"horizon,omitempty"`

	// Fleet shape.
	UEs      int    `json:"ues,omitempty"`
	Policy   string `json:"policy,omitempty"`   // rr | pf
	Workload string `json:"workload,omitempty"` // youtube | browse | facebook
	Network  string `json:"network,omitempty"`  // lte | 3g | 3g-simple | wifi
	Gains    string `json:"gains,omitempty"`    // lo:hi link-quality spread

	// Topology and mobility.
	Cells       int      `json:"cells,omitempty"`
	MobilityMps float64  `json:"mobility_mps,omitempty"`
	X2Latency   Duration `json:"x2_latency,omitempty"`
	Workers     int      `json:"workers,omitempty"`

	// Impairment.
	ThrottleBps float64 `json:"throttle_bps,omitempty"`
	LossRate    float64 `json:"loss_rate,omitempty"`

	// Remediation control plane (nil = controller-free).
	Remedy *Remedy `json:"remedy,omitempty"`
}

// Params maps the scenario onto the experiment-package knobs.
func (s Scenario) Params() experiments.Params {
	return experiments.Params{
		Horizon:     time.Duration(s.Horizon),
		UEs:         s.UEs,
		Cells:       s.Cells,
		SpeedMps:    s.MobilityMps,
		LossRate:    s.LossRate,
		ThrottleBps: s.ThrottleBps,
		Remedy:      s.Remedy.Spec(),
	}
}

// PeekPath pre-scans a raw argument list for the -config flag (all the
// forms the flag package accepts) so the file can be loaded before flags
// are registered — the loaded values become the flag defaults, which is
// what makes explicit flags override the file.
func PeekPath(args []string) string {
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--" {
			return ""
		}
		if !strings.HasPrefix(a, "-") {
			continue
		}
		name := strings.TrimLeft(a, "-")
		if eq := strings.IndexByte(name, '='); eq >= 0 {
			if name[:eq] == "config" {
				return name[eq+1:]
			}
			continue
		}
		if name == "config" && i+1 < len(args) {
			return args[i+1]
		}
	}
	return ""
}

// Load reads a scenario config from path; "-" reads stdin, "" returns the
// zero scenario. Unknown fields are rejected — a typo in a config file
// must not silently become a no-op.
func Load(path string, stdin io.Reader) (Scenario, error) {
	var s Scenario
	if path == "" {
		return s, nil
	}
	var r io.Reader
	if path == "-" {
		r = stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return s, fmt.Errorf("cliconfig: %w", err)
		}
		defer f.Close()
		r = f
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("cliconfig: parsing %s: %w", path, err)
	}
	return s, nil
}
