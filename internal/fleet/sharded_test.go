package fleet_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/qoestore"
	"repro/internal/radio"
)

// stormScenario is the shared multi-cell mobility scenario: 12 UEs driving
// at 20 m/s across a 4-cell grid tight enough to force handovers inside the
// horizon.
func stormScenario(seed int64) fleet.Scenario {
	return fleet.Scenario{
		Seed:     seed,
		Cell:     fleet.CellSpec{Policy: radio.SchedPropFair},
		Topology: &fleet.TopologySpec{Cells: 4, SpacingM: 300},
		Mobility: &fleet.MobilitySpec{SpeedMps: 20, TTT: 240 * time.Millisecond},
		UEs:      fleet.UniformUEs(12),
		Workload: fleet.BrowseWorkload{Pages: 3, ThinkTime: 4 * time.Second},
	}
}

func runSharded(t *testing.T, scen fleet.Scenario, horizon time.Duration, opts ...fleet.Option) (*fleet.Fleet, *fleet.Report) {
	t.Helper()
	f, err := fleet.Build(scen, append(opts, fleet.WithHorizon(horizon))...)
	if err != nil {
		t.Fatal(err)
	}
	f.Drive()
	f.RunTo(horizon)
	f.CloseObs()
	return f, f.Report()
}

// TestShardedFleetGolden is the sharded determinism gate: a multi-cell
// mobile fleet renders byte-identically at every worker count and
// GOMAXPROCS setting and matches its pinned digest, and the run actually
// exercises handovers.
func TestShardedFleetGolden(t *testing.T) {
	const horizon = 2 * time.Minute
	run := func(workers int) (*fleet.Fleet, string) {
		f, rep := runSharded(t, stormScenario(11), horizon, fleet.WithWorkers(workers))
		return f, rep.Render()
	}
	fSerial, golden := run(1)

	// The scenario is not vacuous: mobility produced serving-cell changes,
	// and the QxDM monitor logged them.
	handovers, qxdmRecords := 0, 0
	for _, ue := range fSerial.UEs {
		if ue.Roamer != nil {
			handovers += ue.Roamer.Handovers() + ue.Roamer.Reselections()
		}
		if ue.QxDM != nil {
			qxdmRecords += len(ue.QxDM.Log().Handovers)
		}
	}
	if handovers == 0 {
		t.Fatal("no handovers or reselections in a 20 m/s 4-cell storm run")
	}
	if qxdmRecords != handovers {
		t.Fatalf("QxDM logged %d handover records, roamers counted %d", qxdmRecords, handovers)
	}
	if !strings.Contains(golden, "across 4 cells") {
		t.Fatalf("multi-cell header missing:\n%s", golden)
	}
	if !strings.Contains(golden, "handovers") {
		t.Fatalf("handovers aggregate missing:\n%s", golden)
	}

	for _, workers := range []int{2, 4} {
		if _, got := run(workers); got != golden {
			t.Fatalf("workers=%d render diverged from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, golden, workers, got)
		}
	}
	prev := runtime.GOMAXPROCS(4)
	_, got := run(0) // workers = GOMAXPROCS
	runtime.GOMAXPROCS(prev)
	if got != golden {
		t.Fatalf("GOMAXPROCS=4 render diverged from serial baseline")
	}
	checkDigest(t, "storm/report", []byte(golden))
}

// TestShardedStaticPinned: a multi-cell fleet without mobility pins each UE
// to its home cell (index mod cells) and reports zero handovers.
func TestShardedStaticPinned(t *testing.T) {
	scen := fleet.Scenario{
		Seed:     5,
		Topology: &fleet.TopologySpec{Cells: 2},
		UEs:      fleet.UniformUEs(4),
		Workload: fleet.BrowseWorkload{Pages: 1, ThinkTime: 5 * time.Second},
	}
	f, rep := runSharded(t, scen, 60*time.Second)
	if len(f.Shards) != 2 || f.Topo == nil {
		t.Fatalf("expected 2 shards, got %d (topo %v)", len(f.Shards), f.Topo)
	}
	for i, u := range rep.UEs {
		if u.Cell != i%2 {
			t.Fatalf("ue%d pinned to cell %d, want %d", i, u.Cell, i%2)
		}
		if u.Handovers+u.Reselections != 0 {
			t.Fatalf("static ue%d reports %d handovers", i, u.Handovers+u.Reselections)
		}
		if u.Observed == 0 {
			t.Fatalf("ue%d observed no actions — shard kernel never served it", i)
		}
	}
	if !strings.Contains(rep.Render(), "across 2 cells") {
		t.Fatal("multi-cell header missing")
	}
}

// TestShardedEmitCellLabels: events from a sharded mobile run land in the
// store keyed by real per-cell labels, not a single constant.
func TestShardedEmitCellLabels(t *testing.T) {
	f, rep := runSharded(t, stormScenario(23), 2*time.Minute, fleet.WithTrace())

	s, err := qoestore.Open(t.TempDir(), qoestore.Config{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	em, err := qoestore.NewEmitter(s, qoestore.EmitterConfig{Source: "sharded"})
	if err != nil {
		t.Fatal(err)
	}
	if n := fleet.EmitReport(em, f, rep); n == 0 {
		t.Fatal("no events emitted")
	}
	em.Close()

	all, err := s.Run(qoestore.Query{Metric: "pageload_s"})
	if err != nil {
		t.Fatal(err)
	}
	if all.Count == 0 {
		t.Fatal("no pageload events")
	}
	// Events must be spread across more than one cell key: with 12 UEs homed
	// round-robin on 4 cells, at least two cells see pageloads.
	cellsSeen := 0
	var perCell uint64
	for _, cell := range []string{"cell0", "cell1", "cell2", "cell3"} {
		res, err := s.Run(qoestore.Query{Metric: "pageload_s", Cell: cell})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count > 0 {
			cellsSeen++
			perCell += res.Count
		}
	}
	if cellsSeen < 2 {
		t.Fatalf("pageload events concentrated in %d cell key(s)", cellsSeen)
	}
	if perCell != all.Count {
		t.Fatalf("per-cell counts sum to %d, total %d — events under unexpected cell keys", perCell, all.Count)
	}
}

// TestShardedValidation: malformed multi-cell scenarios error out cleanly.
func TestShardedValidation(t *testing.T) {
	cases := []struct {
		name string
		scen fleet.Scenario
	}{
		{"zero cells", fleet.Scenario{
			UEs: fleet.UniformUEs(1), Topology: &fleet.TopologySpec{Cells: 0}}},
		{"negative spacing", fleet.Scenario{
			UEs: fleet.UniformUEs(1), Topology: &fleet.TopologySpec{Cells: 2, SpacingM: -1}}},
		{"negative x2", fleet.Scenario{
			UEs: fleet.UniformUEs(1), Topology: &fleet.TopologySpec{Cells: 2, X2Latency: -time.Millisecond}}},
		{"mobility without topology", fleet.Scenario{
			UEs: fleet.UniformUEs(1), Mobility: &fleet.MobilitySpec{SpeedMps: 3}}},
		{"mobility on one cell", fleet.Scenario{
			UEs: fleet.UniformUEs(1), Topology: &fleet.TopologySpec{Cells: 1},
			Mobility: &fleet.MobilitySpec{SpeedMps: 3}}},
		{"negative speed", fleet.Scenario{
			UEs: fleet.UniformUEs(1), Topology: &fleet.TopologySpec{Cells: 2},
			Mobility: &fleet.MobilitySpec{SpeedMps: -1}}},
	}
	for _, tc := range cases {
		if _, err := fleet.Build(tc.scen); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestOneCellIsOneShard: a one-cell scenario, with or without a 1-cell
// topology, builds one shard that hosts every UE, with no grid; K is that
// shard's kernel and is set only for one-shard fleets.
func TestOneCellIsOneShard(t *testing.T) {
	for _, topo := range []*fleet.TopologySpec{nil, {Cells: 1}} {
		f, err := fleet.Build(fleet.Scenario{Seed: 9, Topology: topo, UEs: fleet.UniformUEs(3)})
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Shards) != 1 || f.Topo != nil {
			t.Fatalf("topology %+v: %d shard(s), topo %v; want one shard, no grid", topo, len(f.Shards), f.Topo)
		}
		if f.K == nil || f.K != f.Shards[0].K || len(f.Shards[0].UEs) != 3 {
			t.Fatalf("topology %+v: K is not the one shard's kernel hosting every UE", topo)
		}
	}
	f, err := fleet.Build(fleet.Scenario{Seed: 9, Topology: &fleet.TopologySpec{Cells: 2}, UEs: fleet.UniformUEs(3)})
	if err != nil {
		t.Fatal(err)
	}
	if f.K != nil {
		t.Fatal("K is set on a two-shard fleet")
	}
}
