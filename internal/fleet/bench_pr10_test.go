package fleet_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/radio"
)

// remedyOverheadRun is the control-plane overhead workload: a 16-UE
// single-cell browse fleet, either controller-free (spec nil) or with the
// controller in the given mode. Observe mode runs the full fold + diagnosis
// pipeline at every control tick but actuates nothing, so the delta over a
// nil spec is pure control-plane cost.
func remedyOverheadRun(spec *fleet.RemedySpec) {
	ues := fleet.SpreadGains(fleet.UniformUEs(16), 0.7, 1.3)
	for i := range ues {
		ues[i].StartAt = time.Duration(i) * 1500 * time.Millisecond
	}
	scen := fleet.Scenario{
		Seed:     42,
		Cell:     fleet.CellSpec{Policy: radio.SchedRoundRobin},
		UEs:      ues,
		Workload: fleet.BrowseWorkload{Pages: 2, ThinkTime: 6 * time.Second},
		Remedy:   spec,
	}
	if _, err := fleet.Run(scen, fleet.WithHorizon(2*time.Minute+16*1500*time.Millisecond)); err != nil {
		panic(err)
	}
}

// remedyStormRun is the actuation-throughput workload: n UEs homed
// round-robin on 16 cells, every downlink throttled to 40 kbit/s so page
// loads stall and the controller has real work at nearly every tick.
// Per-UE packet capture and radio logging are disabled so the measurement
// is dominated by simulation + control plane, not log retention.
func remedyStormRun(n, workers int) (*fleet.Report, time.Duration) {
	const cells = 16
	const stagger = 1500 * time.Millisecond
	ues := fleet.SpreadGains(fleet.UniformUEs(n), 0.7, 1.3)
	for i := range ues {
		ues[i].StartAt = time.Duration(i/cells) * stagger
		ues[i].ThrottleBps = 40e3
		ues[i].DisablePcap = true
		ues[i].DisableQxDM = true
	}
	horizon := 2*time.Minute + time.Duration(n/cells)*stagger
	scen := fleet.Scenario{
		Seed:     42,
		Cell:     fleet.CellSpec{Policy: radio.SchedRoundRobin},
		Topology: &fleet.TopologySpec{Cells: cells},
		UEs:      ues,
		Workload: fleet.BrowseWorkload{Pages: 2, ThinkTime: 6 * time.Second},
		Remedy:   &fleet.RemedySpec{},
	}
	f, err := fleet.Build(scen, fleet.WithHorizon(horizon), fleet.WithWorkers(workers))
	if err != nil {
		panic(err)
	}
	f.Drive()
	f.RunTo(horizon)
	f.CloseObs()
	return f.Report(), horizon
}

func BenchmarkRemedyStormUE256(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		remedyStormRun(256, 1)
	}
}

// pr10Storm is one remediated storm measurement. Interventions is the
// controller's total action count for the run — deterministic for the
// fixed seed, so a drift between machines signals a behavioral change, not
// noise. InterventionsPerSec is normalized by host wall-clock time.
type pr10Storm struct {
	UEs                 int     `json:"ues"`
	Cells               int     `json:"cells"`
	Workers             int     `json:"workers"`
	HorizonS            float64 `json:"horizon_s"`
	NsPerOp             int64   `json:"ns_per_op"`
	NsPerUESec          float64 `json:"ns_per_ue_vsec"`
	Interventions       int     `json:"interventions"`
	InterventionsPerSec float64 `json:"interventions_per_wall_sec"`
}

type pr10Doc struct {
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`
	// Observe-mode control-plane overhead on the 16-UE fleet (budget 1.05x).
	FleetNsPerOp        int64   `json:"fleet_ns_per_op"`
	FleetObserveNsPerOp int64   `json:"fleet_observe_ns_per_op"`
	ObserveOverhead     float64 `json:"observe_overhead_ratio"`
	// Remediated throttled storms at N=256 and N=1024.
	Storms []pr10Storm `json:"storms"`
}

func countReportInterventions(rep *fleet.Report) int {
	n := 0
	for _, u := range rep.UEs {
		n += len(u.Interventions)
	}
	return n
}

func measureStorm(n, rounds int) pr10Storm {
	var rep *fleet.Report
	var horizon time.Duration
	r := measurePR8(rounds, func() { rep, horizon = remedyStormRun(n, 1) })
	return pr10Storm{
		UEs: n, Cells: 16, Workers: 1,
		HorizonS:            horizon.Seconds(),
		NsPerOp:             r.NsPerOp(),
		NsPerUESec:          float64(r.NsPerOp()) / float64(n) / horizon.Seconds(),
		Interventions:       countReportInterventions(rep),
		InterventionsPerSec: float64(countReportInterventions(rep)) / (float64(r.NsPerOp()) / 1e9),
	}
}

// TestWriteBenchPR10JSON measures the remediation control plane and writes
// the file named by BENCH_PR10_JSON (skipped when unset; `make bench-remedy`
// sets it). Gates: observe-mode controller overhead within 5% of a
// controller-free run, and the controller actually intervening on the
// throttled storms.
func TestWriteBenchPR10JSON(t *testing.T) {
	out := os.Getenv("BENCH_PR10_JSON")
	if out == "" {
		t.Skip("BENCH_PR10_JSON not set")
	}
	doc := pr10Doc{
		Workload: "browse 2 pages/UE; overhead: 16 UEs, 1 cell; storms: 16-cell grid, 40kbps throttle, remedy on",
		Cores:    runtime.NumCPU(),
	}

	base := measurePR8(3, func() { remedyOverheadRun(nil) })
	obs := measurePR8(3, func() { remedyOverheadRun(&fleet.RemedySpec{Observe: true}) })
	doc.FleetNsPerOp = base.NsPerOp()
	doc.FleetObserveNsPerOp = obs.NsPerOp()
	doc.ObserveOverhead = float64(obs.NsPerOp()) / float64(base.NsPerOp())
	if doc.ObserveOverhead > 1.05 {
		t.Errorf("observe-mode controller overhead %.3fx (budget: 1.05x)", doc.ObserveOverhead)
	}

	doc.Storms = append(doc.Storms, measureStorm(256, 2), measureStorm(1024, 1))
	for _, s := range doc.Storms {
		if s.Interventions == 0 {
			t.Errorf("N=%d storm produced no interventions; the throughput figure is vacuous", s.UEs)
		}
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: observe overhead %.3fx, %d interventions at N=1024 (%.0f/s)",
		out, doc.ObserveOverhead, doc.Storms[1].Interventions, doc.Storms[1].InterventionsPerSec)
}
