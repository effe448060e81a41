// Package analyzer implements QoE Doctor's multi-layer QoE analyzer (§5):
// application-layer latency calibration, transport/network TCP flow
// analysis, RRC/RLC radio analysis, and the cross-layer machinery — QoE
// windows, the IP-to-RLC long-jump mapping, and the fine-grained network
// latency breakdown of Fig. 9.
package analyzer

import (
	"time"

	"repro/internal/core/qoe"
)

// Latency is one calibrated user-perceived latency measurement.
type Latency struct {
	Entry      qoe.BehaviorEntry
	Raw        time.Duration
	Calibrated time.Duration
}

// Calibrate applies the §5.1 correction to a raw measurement. For
// user-triggered waits the end timestamp carries t_offset + t_parsing with
// E[t_offset] = t_parsing/2, so 3/2 t_parsing is subtracted. For
// app-triggered waits the start timestamp is measured the same way as the
// end, so the offsets cancel and only t_parsing is subtracted.
func Calibrate(e qoe.BehaviorEntry) Latency {
	raw := e.RawLatency()
	var corr time.Duration
	switch e.Kind {
	case qoe.UserTriggered:
		corr = 3 * e.ParseTime / 2
	case qoe.AppTriggered:
		corr = e.ParseTime
	}
	cal := raw - corr
	if cal < 0 {
		cal = 0
	}
	return Latency{Entry: e, Raw: raw, Calibrated: cal}
}

// AppReport is the application-layer analysis of a behavior log.
type AppReport struct {
	Latencies []Latency
}

// AnalyzeApp calibrates every observed entry of the log.
func AnalyzeApp(log *qoe.BehaviorLog) AppReport {
	var r AppReport
	for _, e := range log.Entries {
		if !e.Observed {
			continue
		}
		r.Latencies = append(r.Latencies, Calibrate(e))
	}
	return r
}

// ByAction filters the report to one action.
func (r AppReport) ByAction(action string) []Latency {
	var out []Latency
	for _, l := range r.Latencies {
		if l.Entry.Action == action {
			out = append(out, l)
		}
	}
	return out
}
