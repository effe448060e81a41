package fleet_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/sweep"
)

// TestSingleUEMatchesBed pins a traced one-UE lab's outputs by digest: QoE
// report, Chrome trace export, metrics export, behavior log, and collected
// packet/radio logs. The digests were recorded from the single-device Bed
// that the 1-UE fleet replaced, hence the name.
func TestSingleUEMatchesBed(t *testing.T) {
	const seed = 7
	const horizon = 90 * time.Second
	wl := fleet.BrowseWorkload{Pages: 2, ThinkTime: 5 * time.Second}

	f, err := fleet.Build(fleet.Scenario{Seed: seed, UEs: fleet.UniformUEs(1)},
		fleet.WithTrace(), fleet.WithMetrics(), fleet.WithHorizon(horizon))
	if err != nil {
		t.Fatal(err)
	}
	wl.Start(f.UEs[0])
	f.K.RunUntil(horizon)
	f.CloseObs()
	ue := f.UEs[0]

	report := f.Report().Render()
	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, ue.Trace.Events()); err != nil {
		t.Fatal(err)
	}

	var metrics, capture, radioLog bytes.Buffer
	if err := ue.Metrics.Snapshot().WriteNDJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := ue.Capture.Write(&capture); err != nil {
		t.Fatal(err)
	}
	if err := ue.QxDM.Log().Write(&radioLog); err != nil {
		t.Fatal(err)
	}
	behavior, err := json.Marshal(ue.Log.Entries)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "single-ue/report", []byte(report))
	checkDigest(t, "single-ue/trace", trace.Bytes())
	checkDigest(t, "single-ue/metrics", metrics.Bytes())
	checkDigest(t, "single-ue/behavior", behavior)
	checkDigest(t, "single-ue/pcap", capture.Bytes())
	checkDigest(t, "single-ue/qxdm", radioLog.Bytes())
}

// TestFleet64Deterministic: a 64-UE contended run yields a byte-identical
// aggregate report across reruns, and across commits (its digest is pinned).
func TestFleet64Deterministic(t *testing.T) {
	run := func() string {
		scen := fleet.Scenario{
			Seed:     42,
			Cell:     fleet.CellSpec{Policy: radio.SchedPropFair},
			UEs:      fleet.SpreadGains(fleet.UniformUEs(64), 0.5, 1.5),
			Workload: fleet.BrowseWorkload{Pages: 2, ThinkTime: 6 * time.Second},
		}
		rep, err := fleet.Run(scen, fleet.WithHorizon(3*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Render()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("64-UE fleet diverged across reruns:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty report")
	}
	checkDigest(t, "fleet64-pf/report", []byte(a))
}

// TestSweepWorkerCountDeterminism: fleet cells as sweep points produce
// identical results regardless of the sweep's -parallel worker count.
func TestSweepWorkerCountDeterminism(t *testing.T) {
	exp, ok := experiments.Lookup("fleet")
	if !ok {
		t.Fatal("fleet experiment not registered")
	}
	cells := sweep.Grid([]experiments.Experiment{exp}, []int64{11, 12, 13})
	render := func(workers int) []string {
		results := sweep.Run(cells, sweep.Options{Workers: workers})
		out := make([]string, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("cell %d failed: %v", i, r.Err)
			}
			out[i] = r.Res.Render()
		}
		return out
	}
	serial := render(1)
	parallel := render(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("fleet sweep results depend on worker count")
	}
}

// TestScenarioValidation: malformed scenarios surface from fleet.Build as
// errors, not panics.
func TestScenarioValidation(t *testing.T) {
	if _, err := fleet.Build(fleet.Scenario{}); err == nil {
		t.Error("empty scenario accepted")
	}
	if _, err := fleet.Build(fleet.Scenario{UEs: []fleet.UESpec{{Gain: -1}}}); err == nil {
		t.Error("negative gain accepted")
	}
	if _, err := fleet.Build(fleet.Scenario{UEs: []fleet.UESpec{{ThrottleBps: -5}}}); err == nil {
		t.Error("negative throttle accepted")
	}
	if _, err := fleet.Build(fleet.Scenario{UEs: []fleet.UESpec{{StartAt: -time.Second}}}); err == nil {
		t.Error("negative start offset accepted")
	}
	for _, plan := range []faults.Plan{
		{Outages: []faults.Outage{{Start: -5 * time.Second, Duration: time.Second}}},
		{Outages: []faults.Outage{{Start: time.Second, Duration: -time.Second}}},
		{LossProb: 2},
		{DupProb: -0.1},
		{GE: &faults.GEParams{PGoodBad: 0.1, PBadGood: 1.5, LossBad: 1}},
		{ReorderProb: 0.1, ReorderDelay: -time.Millisecond},
		{JitterMax: -time.Millisecond},
	} {
		if _, err := fleet.Build(fleet.Scenario{UEs: []fleet.UESpec{{Faults: &plan}}}); err == nil {
			t.Errorf("malformed fault plan %+v accepted", plan)
		}
	}
}

// TestCloseObsIdempotent: CloseObs is safe to call repeatedly, with and
// without configured obs sinks (the sweep teardown double-close).
func TestCloseObsIdempotent(t *testing.T) {
	plain := fleet.MustOneUE(1, nil, fleet.UESpec{})
	plain.CloseObs()
	plain.CloseObs()

	traced := fleet.MustOneUE(1, nil, fleet.UESpec{}, fleet.WithTrace(), fleet.WithMetrics())
	traced.K.RunUntil(2 * time.Second)
	traced.CloseObs()
	n := traced.Trace.Len()
	traced.CloseObs()
	if traced.Trace.Len() != n {
		t.Fatal("second CloseObs emitted more trace events")
	}
}

// TestStaggeredStarts: UESpec.StartAt delays a UE's workload, so its first
// measurement begins after the offset.
func TestStaggeredStarts(t *testing.T) {
	scen := fleet.Scenario{
		Seed:     5,
		UEs:      []fleet.UESpec{{}, {StartAt: 30 * time.Second}},
		Workload: fleet.BrowseWorkload{Pages: 1},
	}
	f, err := fleet.Build(scen, fleet.WithHorizon(2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	f.Drive()
	f.K.RunUntil(2 * time.Minute)
	for i, ue := range f.UEs {
		if len(ue.Log.Entries) == 0 {
			t.Fatalf("UE %d logged nothing", i)
		}
	}
	if first := f.UEs[1].Log.Entries[0].Start; first < 30*time.Second {
		t.Fatalf("staggered UE started at %v, before its 30s offset", first)
	}
	if first := f.UEs[0].Log.Entries[0].Start; first >= 30*time.Second {
		t.Fatalf("unstaggered UE started late at %v", first)
	}
}

// TestChromeTraceMulti: the merged export carries one process per UE with
// its own metadata, and stays parseable as one JSON document.
func TestChromeTraceMulti(t *testing.T) {
	scen := fleet.Scenario{
		Seed:     3,
		UEs:      fleet.UniformUEs(2),
		Workload: fleet.BrowseWorkload{Pages: 1},
	}
	f, err := fleet.Build(scen, fleet.WithTrace(), fleet.WithHorizon(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	f.Drive()
	f.K.RunUntil(time.Minute)
	f.CloseObs()
	procs := make([]obs.Process, len(f.UEs))
	for i, ue := range f.UEs {
		procs[i] = obs.Process{Pid: i + 1, Name: ue.Name, Events: ue.Trace.Events()}
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTraceMulti(&buf, procs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"process_name"`, `"ue0"`, `"ue1"`, `"pid":2`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("multi-process export missing %s", want)
		}
	}
	if out[len(out)-2:] != "}\n" {
		t.Error("export not terminated")
	}
}
