package experiments

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/radio"
)

// RunFleetContention measures how per-UE QoE degrades as a cell fills up:
// the same browse workload runs on fleets of 1 and 8 UEs under both cell
// schedulers, and the per-UE pageload percentiles, RRC transition counts,
// and radio energy are compared. The paper measures one UE at a time; this
// study supplies the carrier-scale context (ERRANT-style cell contention)
// that makes the RRC findings matter — promotion storms and queueing delay
// emerge from bearers competing for one air interface.
func RunFleetContention(seed int64, p Params) *Result {
	res := &Result{ID: "fleet", Title: "Per-UE QoE vs cell population (fleet contention)"}
	tbl := &metrics.Table{Headers: []string{
		"UEs", "Sched", "Pageload p50", "Pageload p95", "RRC trans (mean)", "Energy (mean)",
	}}

	for _, n := range []int{1, p.ues(8)} {
		for _, policy := range []radio.SchedPolicy{radio.SchedRoundRobin, radio.SchedPropFair} {
			if n == 1 && policy == radio.SchedPropFair {
				continue // one bearer: scheduling policy cannot matter
			}
			ues := fleet.SpreadGains(fleet.UniformUEs(n), 0.6, 1.4)
			if p.ThrottleBps > 0 {
				for i := range ues {
					ues[i].ThrottleBps = p.ThrottleBps
				}
			}
			scen := fleet.Scenario{
				Seed: seed,
				Cell: fleet.CellSpec{Profile: radio.ProfileLTE(), Policy: policy},
				UEs:  ues,
				Workload: fleet.BrowseWorkload{
					Pages:     3,
					ThinkTime: 8 * time.Second,
				},
				Remedy: p.Remedy,
			}
			rep, err := fleet.Run(scen, fleet.WithHorizon(p.horizon(5*time.Minute)))
			if err != nil {
				res.Set(fmt.Sprintf("error/%s/n%d", policy, n), 1)
				continue
			}
			p50, _ := rep.Value("pageload_s", "p50")
			p95, _ := rep.Value("pageload_s", "p95")
			trans, _ := rep.Value("rrc_transitions", "mean")
			energy, _ := rep.Value("rrc_energy_j", "mean")
			tbl.AddRow(fmt.Sprintf("%d", n), policy.String(),
				fmtS(p50), fmtS(p95), fmt.Sprintf("%.1f", trans), fmtJ(energy))
			key := func(m string) string { return fmt.Sprintf("%s/%s/n%d", m, policy, n) }
			res.Set(key("pageload_p50_s"), p50)
			res.Set(key("pageload_p95_s"), p95)
			res.Set(key("rrc_transitions_mean"), trans)
			res.Set(key("rrc_energy_mean_j"), energy)
		}
	}
	res.Tables = append(res.Tables, tbl)
	return res
}
