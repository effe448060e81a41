package experiments

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/radio"
)

// RunHandoverStorm quantifies what mobility costs QoE: the same 12-UE
// browse workload runs twice on a 4-cell LTE grid — once with every UE
// parked on its home cell, once with every UE driving at 30 m/s, forcing
// A3 handovers whose interruption windows freeze the data plane. The table
// compares pageload percentiles and handover counts; the sharded multi-cell
// fleet (one kernel per cell, lockstep-synchronized) makes the storm run
// deterministic at any worker count.
func RunHandoverStorm(seed int64, p Params) *Result {
	res := &Result{ID: "handover", Title: "QoE under a handover storm (multi-cell mobility)"}
	tbl := &metrics.Table{Headers: []string{
		"Mobility", "Pageload p50", "Pageload p95", "Latency p95", "HO+resel (mean)",
	}}

	for _, mode := range []struct {
		name  string
		speed float64
	}{{"static", 0}, {"storm", p.speed(30)}} {
		scen := fleet.Scenario{
			Seed:     seed,
			Cell:     fleet.CellSpec{Profile: radio.ProfileLTE(), Policy: radio.SchedPropFair},
			Topology: &fleet.TopologySpec{Cells: p.cells(4), SpacingM: 300},
			UEs:      fleet.UniformUEs(p.ues(12)),
			Workload: fleet.BrowseWorkload{Pages: 3, ThinkTime: 4 * time.Second},
			Remedy:   p.Remedy,
		}
		if mode.speed > 0 {
			scen.Mobility = &fleet.MobilitySpec{SpeedMps: mode.speed, TTT: 240 * time.Millisecond}
		}
		rep, err := fleet.Run(scen, fleet.WithHorizon(p.horizon(3*time.Minute)))
		if err != nil {
			res.Set(fmt.Sprintf("error/%s", mode.name), 1)
			continue
		}
		p50, _ := rep.Value("pageload_s", "p50")
		p95, _ := rep.Value("pageload_s", "p95")
		lat95, _ := rep.Value("user_latency_s", "p95")
		ho, _ := rep.Value("handovers", "mean")
		hoMean := fmt.Sprintf("%.1f", ho)
		if mode.speed == 0 {
			hoMean = "0.0"
		}
		tbl.AddRow(mode.name, fmtS(p50), fmtS(p95), fmtS(lat95), hoMean)
		key := func(m string) string { return fmt.Sprintf("%s/%s", m, mode.name) }
		res.Set(key("pageload_p50_s"), p50)
		res.Set(key("pageload_p95_s"), p95)
		res.Set(key("user_latency_p95_s"), lat95)
		if mode.speed > 0 {
			total := 0
			for _, u := range rep.UEs {
				total += u.Handovers + u.Reselections
			}
			res.Set("handovers_total", float64(total))
			res.Set("handovers_mean", ho)
		}
	}
	res.Tables = append(res.Tables, tbl)
	return res
}
