// Package qoemon is the continuous-monitoring layer over qoestore: a
// deterministic SLO/burn-rate engine with multi-window alerting, baseline
// regression detection, and per-alert cross-layer attribution.
//
// QoE Doctor diagnoses one session after the fact; qoemon turns the same
// analysis into an always-on service objective. An SLO declares a bound on
// a QoE metric's distribution ("rebuffer_ratio p95 < 0.02"), evaluated per
// (cell, workload, cohort) series against the store's retained windows.
// Alerting follows the SRE multi-window burn-rate recipe: a fast pair
// (5m/1h at 14.4× budget burn) pages, a slow pair (6h/3d at 1×) warns, and
// an explicit hysteresis fold keeps flapping series from paging twice.
//
// Everything is a pure function of store contents: evaluation folds over
// SeriesCounts (sorted keys, ascending windows, virtual timestamps), so
// the same seed and event stream produce byte-identical /slo, /alerts and
// /attrib responses across reruns and across restarts (the WAL replay
// rebuilds identical windows).
package qoemon

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Severity is an alert level: ok < warn < page.
type Severity int

// Severity levels in escalation order.
const (
	SevOK Severity = iota
	SevWarn
	SevPage
)

func (s Severity) String() string {
	switch s {
	case SevWarn:
		return "warn"
	case SevPage:
		return "page"
	default:
		return "ok"
	}
}

// MarshalJSON renders the severity as its string name so API payloads read
// "page", not 2.
func (s Severity) MarshalJSON() ([]byte, error) { return []byte(`"` + s.String() + `"`), nil }

// UnmarshalJSON accepts the string names (qoewatch round-trips alerts).
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch strings.Trim(string(b), `"`) {
	case "ok":
		*s = SevOK
	case "warn":
		*s = SevWarn
	case "page":
		*s = SevPage
	default:
		return fmt.Errorf("qoemon: unknown severity %s", b)
	}
	return nil
}

// BurnPair is one multi-window burn-rate rule: fire at the given severity
// when the error-budget burn rate exceeds Rate over BOTH the short and the
// long window. The long window keeps one bad blip from firing; the short
// window makes the alert reset quickly once the problem stops.
type BurnPair struct {
	Short time.Duration `json:"short_ns"`
	Long  time.Duration `json:"long_ns"`
	Rate  float64       `json:"rate"`
	Sev   Severity      `json:"severity"`
}

// DefaultPairs is the standard SRE fast/slow ladder: 14.4× burn over 5m+1h
// pages (budget gone in ~2 days), 1× over 6h+3d warns (budget on track to
// exhaust exactly at the 3d horizon).
func DefaultPairs() []BurnPair {
	return []BurnPair{
		{Short: 5 * time.Minute, Long: time.Hour, Rate: 14.4, Sev: SevPage},
		{Short: 6 * time.Hour, Long: 72 * time.Hour, Rate: 1, Sev: SevWarn},
	}
}

// SLO is one declarative objective: "Quantile of Metric stays below
// Threshold", evaluated independently per (cell, workload, cohort) series.
// An observation above Threshold spends error budget; the budget fraction
// is 1-Quantile.
type SLO struct {
	// Name labels alerts; defaults to "<metric>_p<quantile>" in ParseSLO.
	Name string `json:"name"`
	// Metric is the qoestore metric the objective binds (e.g.
	// "rebuffer_ratio").
	Metric string `json:"metric"`
	// Quantile is the objective quantile in (0,1), e.g. 0.95 for p95.
	Quantile float64 `json:"quantile"`
	// Threshold bounds the quantile: metric pQ < Threshold.
	Threshold float64 `json:"threshold"`
	// Pairs overrides the burn-rate ladder; nil means DefaultPairs.
	Pairs []BurnPair `json:"pairs,omitempty"`
}

// Budget is the error-budget fraction: the share of observations allowed
// above Threshold while still meeting the objective.
func (s SLO) Budget() float64 { return 1 - s.Quantile }

func (s SLO) pairs() []BurnPair {
	if len(s.Pairs) > 0 {
		return s.Pairs
	}
	return DefaultPairs()
}

func (s SLO) validate() error {
	if s.Metric == "" {
		return fmt.Errorf("qoemon: SLO %q has no metric", s.Name)
	}
	if s.Quantile <= 0 || s.Quantile >= 1 {
		return fmt.Errorf("qoemon: SLO %q quantile %g outside (0,1)", s.Name, s.Quantile)
	}
	if math.IsNaN(s.Threshold) || math.IsInf(s.Threshold, 0) {
		// The store's histograms bin the threshold: a NaN has no bin, and
		// an infinite bound is met always or never.
		return fmt.Errorf("qoemon: SLO %q threshold %g is not finite", s.Name, s.Threshold)
	}
	for _, p := range s.pairs() {
		if p.Short <= 0 || p.Long < p.Short || p.Rate <= 0 {
			return fmt.Errorf("qoemon: SLO %q has a malformed burn pair %+v", s.Name, p)
		}
	}
	return nil
}

// ParseSLO parses the declarative one-line form used by qoeserve's -slo
// flag:
//
//	[name:] <metric> p<quantile> < <threshold>
//
// e.g. "rebuffer_ratio p95 < 0.02" or "slow_pages: pageload_s p99 < 8".
// The quantile may be fractional ("p99.9"). Whitespace is free-form.
func ParseSLO(spec string) (SLO, error) {
	var slo SLO
	s := strings.TrimSpace(spec)
	if i := strings.Index(s, ":"); i >= 0 {
		slo.Name = strings.TrimSpace(s[:i])
		s = s[i+1:]
	}
	fields := strings.Fields(s)
	// Tolerate "p95<0.02" glued forms by re-splitting on '<'.
	joined := strings.Join(fields, " ")
	parts := strings.SplitN(joined, "<", 2)
	if len(parts) != 2 {
		return slo, fmt.Errorf("qoemon: SLO %q: want \"<metric> p<q> < <threshold>\"", spec)
	}
	left := strings.Fields(strings.TrimSpace(parts[0]))
	if len(left) != 2 || !strings.HasPrefix(left[1], "p") {
		return slo, fmt.Errorf("qoemon: SLO %q: want \"<metric> p<q> < <threshold>\"", spec)
	}
	slo.Metric = left[0]
	pct, err := strconv.ParseFloat(left[1][1:], 64)
	if err != nil || pct <= 0 || pct >= 100 {
		return slo, fmt.Errorf("qoemon: SLO %q: bad quantile %q", spec, left[1])
	}
	slo.Quantile = pct / 100
	slo.Threshold, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return slo, fmt.Errorf("qoemon: SLO %q: bad threshold %q", spec, parts[1])
	}
	if slo.Name == "" {
		slo.Name = fmt.Sprintf("%s_p%s", slo.Metric,
			strconv.FormatFloat(pct, 'f', -1, 64))
	}
	return slo, slo.validate()
}
