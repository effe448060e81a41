package experiments

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/radio"
)

// Remedy A/B defaults: a single LTE cell where every UE streams video
// through a carrier throttle tight enough that the native bitrate cannot
// sustain playback. The baseline run rebuffers; the remediated run lets the
// closed-loop controller diagnose the stall and step the ABR ladder down
// (or switch the UE to an edge server when the radio is clean).
const (
	remedyUEs         = 6
	remedyThrottleBps = 280e3
	remedyHorizon     = 10 * time.Minute
)

// RunRemedy is the counterfactual A/B harness for the closed-loop
// remediation controller: the identical scenario (same seed, same UEs, same
// impairment) runs twice — once controller-free, once with the fleet's
// remediation control plane in the loop — and the per-UE QoE deltas are
// attributed to the interventions that produced them. Every intervention is
// listed with its diagnosis, energy cost, and the QoE movement of the UE it
// acted on, so the experiment answers both "did closing the loop help?" and
// "what did each action buy?".
func RunRemedy(seed int64, p Params) *Result {
	res := &Result{ID: "remedy", Title: "Closed-loop QoE remediation (counterfactual A/B)"}

	run := func(withCtl bool) (*fleet.Report, error) {
		ues := fleet.UniformUEs(p.ues(remedyUEs))
		for i := range ues {
			ues[i].ThrottleBps = p.throttle(remedyThrottleBps)
		}
		scen := fleet.Scenario{
			Seed:     seed,
			Cell:     fleet.CellSpec{Profile: radio.ProfileLTE(), Policy: radio.SchedPropFair},
			UEs:      ues,
			Workload: fleet.YouTubeWorkload{},
		}
		if withCtl {
			if p.Remedy != nil {
				spec := *p.Remedy
				scen.Remedy = &spec
			} else {
				scen.Remedy = &fleet.RemedySpec{}
			}
		}
		return fleet.Run(scen, fleet.WithHorizon(p.horizon(remedyHorizon)))
	}

	base, err := run(false)
	if err != nil {
		res.Set("error/baseline", 1)
		return res
	}
	rem, err := run(true)
	if err != nil {
		res.Set("error/remedied", 1)
		return res
	}

	// Fleet-level A/B: the same KPI aggregates side by side with deltas.
	ab := &metrics.Table{
		Title:   "Same-seed counterfactual (baseline vs remediated)",
		Headers: []string{"KPI", "Baseline", "Remediated", "Delta"},
	}
	for _, kpi := range []struct{ name, col string }{
		{"rebuffer_ratio", "mean"},
		{"rebuffer_ratio", "p95"},
		{"user_latency_s", "mean"},
		{"rrc_energy_j", "mean"},
	} {
		b, _ := base.Value(kpi.name, kpi.col)
		r, _ := rem.Value(kpi.name, kpi.col)
		key := kpi.name + "_" + kpi.col
		ab.AddRow(key, fmt.Sprintf("%.4f", b), fmt.Sprintf("%.4f", r), fmt.Sprintf("%+.4f", r-b))
		res.Set("baseline/"+key, b)
		res.Set("remedied/"+key, r)
	}

	// Per-intervention ledger: each control-plane action with its energy
	// cost and the QoE movement of the UE it acted on (remediated minus
	// baseline, same seed — negative rebuffer/latency deltas are wins).
	ledger := &metrics.Table{
		Title:   "Per-intervention QoE delta and energy cost",
		Headers: []string{"UE", "At", "Action", "Diagnosis", "Applied", "Energy", "dRebuf", "dLatency"},
	}
	interventions, applied := 0, 0
	var energyJ float64
	for i, u := range rem.UEs {
		if len(u.Interventions) == 0 {
			continue
		}
		dReb := u.RebufferRatio - base.UEs[i].RebufferRatio
		dLat := (u.MeanLatency - base.UEs[i].MeanLatency).Seconds()
		for _, iv := range u.Interventions {
			interventions++
			if iv.Applied {
				applied++
			}
			energyJ += iv.EnergyJ
			ledger.AddRow(u.Name,
				fmt.Sprintf("%.1fs", time.Duration(iv.AppliedAt).Seconds()),
				iv.Kind.String(), iv.Layer.String(), fmt.Sprintf("%v", iv.Applied),
				fmt.Sprintf("%.2fJ", iv.EnergyJ),
				fmt.Sprintf("%+.4f", dReb), fmt.Sprintf("%+.3fs", dLat))
		}
	}
	res.Set("interventions", float64(interventions))
	res.Set("interventions_applied", float64(applied))
	res.Set("remedy_energy_j", energyJ)

	bReb, _ := base.Value("rebuffer_ratio", "mean")
	rReb, _ := rem.Value("rebuffer_ratio", "mean")
	res.Set("rebuffer_improvement", bReb-rReb)

	res.Tables = []*metrics.Table{ab, ledger}
	return res
}
