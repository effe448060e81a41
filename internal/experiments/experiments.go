// Package experiments regenerates every table and figure of the paper's
// evaluation (§7). Each experiment is a pure function of a seed: it builds
// fresh testbeds, drives them with the QoE-aware UI controller, feeds the
// collected logs to the multi-layer analyzer, and returns both
// paper-style rendered tables and a machine-readable map of key values
// (asserted by bench_test.go and recorded in EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
)

// Params carries the scenario knobs shared by every experiment: how long to
// run, how many devices and cells, how hard to impair the network, and
// whether the remediation controller is in the loop. The zero value always
// reproduces the experiment's paper-exact defaults (golden outputs are
// asserted against it); a non-zero field overrides only the knob it names,
// and experiments ignore knobs that have no meaning for them (a single-UE
// paper figure has no population to scale).
type Params struct {
	// Horizon bounds the run's virtual time (0 = experiment default).
	Horizon time.Duration
	// UEs overrides the fleet population of multi-UE experiments.
	UEs int
	// Cells overrides the topology size of multi-cell experiments.
	Cells int
	// SpeedMps overrides the mobility speed of handover experiments.
	SpeedMps float64
	// LossRate overrides the injected mean loss rate of impairment
	// experiments (the sweep collapses to {0, LossRate}).
	LossRate float64
	// ThrottleBps overrides the carrier throttle rate of throttling
	// experiments (sweeps collapse to the one rate).
	ThrottleBps float64
	// Remedy puts the fleet's remediation controller in the loop for
	// experiments that support it (nil = controller-free).
	Remedy *fleet.RemedySpec
}

// Per-experiment default resolution: each helper returns the override when
// set, the experiment's own default otherwise.
func (p Params) horizon(def time.Duration) time.Duration {
	if p.Horizon > 0 {
		return p.Horizon
	}
	return def
}

func (p Params) ues(def int) int {
	if p.UEs > 0 {
		return p.UEs
	}
	return def
}

func (p Params) cells(def int) int {
	if p.Cells > 0 {
		return p.Cells
	}
	return def
}

func (p Params) speed(def float64) float64 {
	if p.SpeedMps > 0 {
		return p.SpeedMps
	}
	return def
}

func (p Params) throttle(def float64) float64 {
	if p.ThrottleBps > 0 {
		return p.ThrottleBps
	}
	return def
}

// Result is one experiment's output.
type Result struct {
	ID    string
	Title string
	// Tables render the paper-style rows/series.
	Tables []*metrics.Table
	// Plots are ASCII renderings of the figure curves (CDFs etc.).
	Plots []string
	// Values holds the key metrics by name, for programmatic checks.
	Values map[string]float64
}

// Set records a key metric.
func (r *Result) Set(key string, v float64) {
	if r.Values == nil {
		r.Values = make(map[string]float64)
	}
	r.Values[key] = v
}

// Render formats the full result.
func (r *Result) Render() string {
	out := fmt.Sprintf("=== %s: %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += "\n" + t.String()
	}
	for _, p := range r.Plots {
		out += "\n" + p
	}
	if len(r.Values) > 0 {
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out += "\nkey values:\n"
		for _, k := range keys {
			out += fmt.Sprintf("  %-44s %.4f\n", k, r.Values[k])
		}
	}
	return out
}

// Experiment is a registered, reproducible experiment. Run is a pure
// function of the seed and Params (Params{} reproduces the paper-exact
// defaults; testdata/registry.sha256 pins every experiment's output at
// seed 77).
type Experiment struct {
	ID    string
	Title string // the paper artifact it regenerates
	Goal  string // Table 2's experiment-goal column
	Run   func(seed int64, p Params) *Result
}

// Registry lists every experiment in paper order (Table 2 plus the tool
// evaluation of §7.1).
func Registry() []Experiment {
	return []Experiment{
		{"table3", "Tool accuracy and overhead summary (Table 3, Fig. 6)",
			"Measurement error, mapping ratio, CPU overhead", RunAccuracy},
		{"fig7", "Device and network delay breakdown for post uploads (Fig. 7)",
			"Device and network delay on the critical path", RunPostBreakdown},
		{"fig8", "Fine-grained network latency breakdown for 2-photo upload (Fig. 8/9)",
			"3G RLC transmission delay vs LTE", RunRLCBreakdown},
		{"fig10", "Background data consumption by post upload frequency (Fig. 10)",
			"Data consumption during application idle time", RunBackgroundData},
		{"fig11", "Background energy consumption by post upload frequency (Fig. 11)",
			"Energy consumption during application idle time", RunBackgroundEnergy},
		{"fig12", "Data consumption by refresh interval (Fig. 12)",
			"Impact of the refresh-interval configuration", RunRefreshData},
		{"fig13", "Energy consumption by refresh interval (Fig. 13)",
			"Impact of the refresh-interval configuration", RunRefreshEnergy},
		{"fig14", "News feed updating time, WebView vs ListView (Fig. 14)",
			"Impact of app design choices on user-perceived latency", RunFeedDesignCDF},
		{"fig15", "Update-time device/network breakdown, WV vs LV (Fig. 15)",
			"Impact of app design choices on user-perceived latency", RunFeedDesignBreakdown},
		{"fig16", "Network data consumption for feed updates, WV vs LV (Fig. 16)",
			"Impact of app design choices on data consumption", RunFeedDesignData},
		{"fig17", "Rebuffering ratio and initial loading CDFs under throttling (Fig. 17)",
			"Impact of carrier throttling on user-perceived latency", RunThrottleCDF},
		{"fig18", "Throughput: 3G traffic shaping vs LTE traffic policing (Fig. 18)",
			"Throttling mechanism comparison", RunShapeVsPolice},
		{"fig19", "Rebuffering ratio vs throttled bandwidth (Fig. 19)",
			"Throttling rate sweep", RunRebufferVsRate},
		{"fig20", "Initial loading time vs throttled bandwidth (Fig. 20)",
			"Throttling rate sweep", RunInitLoadVsRate},
		{"sec7.6", "Impact of video ads on user-perceived latency (§7.6)",
			"Impact of video ads on user-perceived latency", RunAdsImpact},
		{"sec7.7", "Impact of the RRC state machine design on page loads (§7.7)",
			"Impact of the RRC state machine design", RunRRCSimplify},
		{"faults", "QoE vs injected network impairment (loss/outage sweep)",
			"Graceful degradation under loss, jitter, and bearer outages", RunImpairmentSweep},
		{"fleet", "Per-UE QoE vs cell population (fleet contention)",
			"Cross-UE contention on a shared cell", RunFleetContention},
		{"handover", "QoE under a handover storm (multi-cell mobility)",
			"Handover interruption cost across a sharded multi-cell fleet", RunHandoverStorm},
		{"remedy", "Closed-loop QoE remediation (counterfactual A/B)",
			"Per-intervention QoE delta and energy cost of the control plane", RunRemedy},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func kb(bytes int) float64 { return float64(bytes) / 1024 }

func fmtS(v float64) string  { return fmt.Sprintf("%.2f s", v) }
func fmtKB(v float64) string { return fmt.Sprintf("%.0f KB", v) }
func fmtJ(v float64) string  { return fmt.Sprintf("%.0f J", v) }
func fmtPct(v float64) string {
	return fmt.Sprintf("%.1f%%", 100*v)
}
