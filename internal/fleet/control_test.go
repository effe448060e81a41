package fleet_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/serversim"
	"repro/internal/fleet"
	"repro/internal/remedy"
	"repro/internal/simtime"
)

// throttledVideoScenario is the shared remediation scenario: every UE
// streams video through a carrier throttle below the native bitrate, so the
// players stall and the controller has something to diagnose.
func throttledVideoScenario(seed int64, n int) fleet.Scenario {
	ues := fleet.UniformUEs(n)
	for i := range ues {
		ues[i].ThrottleBps = 280e3
	}
	return fleet.Scenario{
		Seed:     seed,
		UEs:      ues,
		Workload: fleet.YouTubeWorkload{},
	}
}

func runControlled(t *testing.T, scen fleet.Scenario, horizon time.Duration, opts ...fleet.Option) (*fleet.Fleet, *fleet.Report) {
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

func countInterventions(rep *fleet.Report) int {
	n := 0
	for _, u := range rep.UEs {
		n += len(u.Interventions)
	}
	return n
}

// TestObserveControllerByteInvisible: a controller in observe mode runs the
// full sense-and-diagnose pipeline but actuates nothing — the run must be
// byte-identical to a controller-free run in its report AND its traces. This
// is the control-plane-overhead-is-zero guarantee: hooks fire between kernel
// events without consuming event slots, RNG draws, or trace IDs.
func TestObserveControllerByteInvisible(t *testing.T) {
	const horizon = 3 * time.Minute
	plain := throttledVideoScenario(3, 2)
	_, repPlain := runControlled(t, plain, horizon, fleet.WithTrace())

	observed := throttledVideoScenario(3, 2)
	observed.Remedy = &fleet.RemedySpec{Observe: true}
	fObs, repObs := runControlled(t, observed, horizon, fleet.WithTrace())

	if got, want := repObs.Render(), repPlain.Render(); got != want {
		t.Fatalf("observe-mode report diverged:\n--- plain ---\n%s\n--- observe ---\n%s", want, got)
	}
	if n := countInterventions(repObs); n != 0 {
		t.Fatalf("observe mode recorded %d interventions", n)
	}

	// Trace streams must match event for event: the control hook may not
	// emit, reorder, or renumber anything.
	fPlain, _ := fleet.Build(plain, fleet.WithHorizon(horizon), fleet.WithTrace())
	fPlain.Drive()
	fPlain.RunTo(horizon)
	fPlain.CloseObs()
	for i := range fPlain.UEs {
		a := fPlain.UEs[i].Trace.Events()
		b := fObs.UEs[i].Trace.Events()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("ue%d trace diverged under observe mode: %d vs %d events", i, len(a), len(b))
		}
	}
}

// TestRemedyRerunByteIdentical: an actively remediated run is a pure
// function of the scenario — rerunning it reproduces the report (including
// the intervention ledger) byte for byte.
func TestRemedyRerunByteIdentical(t *testing.T) {
	const horizon = 4 * time.Minute
	run := func() (*fleet.Report, string) {
		scen := throttledVideoScenario(7, 3)
		scen.Remedy = &fleet.RemedySpec{}
		_, rep := runControlled(t, scen, horizon)
		return rep, rep.Render()
	}
	rep1, golden := run()
	if countInterventions(rep1) == 0 {
		t.Fatal("remediation scenario produced no interventions; the rerun test is vacuous")
	}
	if !strings.Contains(golden, "== Remediation:") {
		t.Fatalf("report lacks the remediation section:\n%s", golden)
	}
	if _, again := run(); again != golden {
		t.Fatalf("remediated rerun diverged:\n--- first ---\n%s\n--- second ---\n%s", golden, again)
	}
}

// TestScheduledABRStep: the ABR actuators take effect exactly at their
// scheduled virtual time — the rung is unchanged one tick before, moved one
// tick after, and the intervention ledger records the actuation instant.
func TestScheduledABRStep(t *testing.T) {
	scen := throttledVideoScenario(7, 1)
	f, err := fleet.Build(scen, fleet.WithHorizon(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	const stepAt = 80 * time.Second
	f.ScheduleAction(stepAt, 0, remedy.Action{UE: 0, Kind: remedy.ActionABRStepDown})
	f.Drive()

	f.RunTo(stepAt - time.Millisecond)
	ue := f.UEs[0]
	if !ue.YouTube.Active() {
		t.Fatal("no active playback at the scheduled step time; pick a different instant")
	}
	if r := ue.YouTube.QualityRung(); r != 0 {
		t.Fatalf("rung = %d before the scheduled step", r)
	}
	f.RunTo(stepAt)
	if r := ue.YouTube.QualityRung(); r != 1 {
		t.Fatalf("rung = %d at the scheduled step time, want 1", r)
	}
	if len(ue.Interventions) != 1 {
		t.Fatalf("interventions = %+v, want exactly one", ue.Interventions)
	}
	iv := ue.Interventions[0]
	if !iv.Applied || time.Duration(iv.AppliedAt) != stepAt {
		t.Fatalf("intervention = %+v, want applied at %v", iv, stepAt)
	}
	if ue.RemedyEnergyJ <= 0 {
		t.Fatal("applied action charged no energy")
	}

	// Step back up: rung returns to native at the second scheduled instant.
	const upAt = 100 * time.Second
	f.ScheduleAction(upAt, 0, remedy.Action{UE: 0, Kind: remedy.ActionABRStepUp})
	f.RunTo(upAt)
	if r := ue.YouTube.QualityRung(); r != 0 {
		t.Fatalf("rung = %d after scheduled step-up, want 0", r)
	}
}

// TestScheduledServerSwitch: the server-switch actuator repoints the UE's
// DNS zone onto the edge replicas at the scheduled time, and a second
// switch is a recorded no-op (idempotence).
func TestScheduledServerSwitch(t *testing.T) {
	scen := throttledVideoScenario(7, 1)
	f, err := fleet.Build(scen, fleet.WithHorizon(3*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	const switchAt = 60 * time.Second
	f.ScheduleAction(switchAt, 0, remedy.Action{UE: 0, Kind: remedy.ActionServerSwitch})
	f.ScheduleAction(switchAt+10*time.Second, 0, remedy.Action{UE: 0, Kind: remedy.ActionServerSwitch})
	f.Drive()

	f.RunTo(switchAt - time.Millisecond)
	ue := f.UEs[0]
	if ue.Servers.EdgeYouTube != nil {
		t.Fatal("edge servers installed before the scheduled switch")
	}
	if a := ue.Servers.DNS.Zone[serversim.YouTubeHost]; a == serversim.EdgeYouTubeAddr {
		t.Fatal("DNS repointed before the scheduled switch")
	}
	f.RunTo(switchAt)
	if ue.Servers.EdgeYouTube == nil || ue.Servers.EdgeWeb == nil {
		t.Fatal("edge servers not installed at the scheduled switch time")
	}
	if a := ue.Servers.DNS.Zone[serversim.YouTubeHost]; a != serversim.EdgeYouTubeAddr {
		t.Fatalf("YouTube DNS points at %v, want edge %v", a, serversim.EdgeYouTubeAddr)
	}
	if a := ue.Servers.DNS.Zone[serversim.WebHostBase]; a != serversim.EdgeWebAddr {
		t.Fatalf("web DNS points at %v, want edge %v", a, serversim.EdgeWebAddr)
	}
	if len(ue.Interventions) != 1 || !ue.Interventions[0].Applied {
		t.Fatalf("interventions after first switch = %+v", ue.Interventions)
	}

	f.RunTo(switchAt + 10*time.Second)
	if len(ue.Interventions) != 2 {
		t.Fatalf("second switch not recorded: %+v", ue.Interventions)
	}
	if ue.Interventions[1].Applied {
		t.Fatal("second server switch reported Applied; must be an idempotent no-op")
	}
}

// TestScheduledRRCRetune: the RRC actuator rescales the demotion timers at
// the scheduled virtual time, visible through the machine's accessor.
func TestScheduledRRCRetune(t *testing.T) {
	scen := throttledVideoScenario(7, 1)
	f, err := fleet.Build(scen, fleet.WithHorizon(2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	const retuneAt = 30 * time.Second
	f.ScheduleAction(retuneAt, 0, remedy.Action{UE: 0, Kind: remedy.ActionRRCRetune, Scale: 2})
	f.Drive()

	f.RunTo(retuneAt - time.Millisecond)
	ue := f.UEs[0]
	if s := ue.Net.Bearer.RRC().DemotionScale(); s != 0 {
		t.Fatalf("demotion scale = %v before the scheduled retune", s)
	}
	f.RunTo(retuneAt)
	if s := ue.Net.Bearer.RRC().DemotionScale(); s != 2 {
		t.Fatalf("demotion scale = %v at the scheduled retune time, want 2", s)
	}
}

// TestShardedFleetGoldenRemedy extends the sharded determinism gate to an
// actively remediating fleet: the storm scenario with throttled bearers and
// the controller in the loop renders byte-identically at every worker count
// and across reruns, and the run actually intervenes. (The Makefile's
// verify target re-runs every TestShardedFleetGolden* at GOMAXPROCS=1
// and 4.)
func TestShardedFleetGoldenRemedy(t *testing.T) {
	const horizon = 2 * time.Minute
	scenario := func() fleet.Scenario {
		scen := stormScenario(11)
		for i := range scen.UEs {
			scen.UEs[i].ThrottleBps = 40e3 // pageloads crawl past the stall threshold
		}
		scen.Remedy = &fleet.RemedySpec{}
		return scen
	}
	run := func(workers int) (*fleet.Report, string) {
		_, rep := runSharded(t, scenario(), horizon, fleet.WithWorkers(workers))
		return rep, rep.Render()
	}
	rep, golden := run(1)
	if countInterventions(rep) == 0 {
		t.Fatal("remediated storm produced no interventions; the golden is vacuous")
	}
	if !strings.Contains(golden, "== Remediation:") {
		t.Fatalf("report lacks the remediation section:\n%s", golden)
	}
	if _, again := run(1); again != golden {
		t.Fatal("serial remediated rerun diverged from itself")
	}
	for _, workers := range []int{2, 4} {
		if _, got := run(workers); got != golden {
			t.Fatalf("workers=%d remediated render diverged from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, golden, workers, got)
		}
	}
	checkDigest(t, "storm-remedy/report", []byte(golden))
}

// TestOneCellRemedyGolden pins an actively remediated one-cell fleet: every
// control tick sees all six UEs, and every action lands through the tick's
// own kernel.
func TestOneCellRemedyGolden(t *testing.T) {
	scen := throttledVideoScenario(3, 6)
	scen.Remedy = &fleet.RemedySpec{}
	_, rep := runControlled(t, scen, 4*time.Minute)
	if countInterventions(rep) == 0 {
		t.Fatal("remediated one-cell fleet produced no interventions; the golden is vacuous")
	}
	checkDigest(t, "one-cell-remedy/report", []byte(rep.Render()))
}

// TestCrossShardActionDelivery: a control hook on one shard actuating a UE
// hosted on another shard rides the lockstep epoch barrier — the action
// lands (at an epoch boundary plus latency), and the run stays
// byte-identical at every worker count.
func TestCrossShardActionDelivery(t *testing.T) {
	const horizon = 2 * time.Minute
	run := func(workers int) (*fleet.Report, string) {
		scen := stormScenario(11)
		f, err := fleet.Build(scen, fleet.WithHorizon(horizon), fleet.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		// From shard 0's tick, retune the RRC machine of the last UE — homed
		// on the last cell, i.e. a different shard whenever workers > 1.
		target := f.UEs[len(f.UEs)-1]
		issued := false
		f.OnControl(10*time.Second, func(tick fleet.ControlTick) {
			if tick.Shard != 0 || issued || tick.At < simtime.Time(30*time.Second) {
				return
			}
			issued = true
			tick.Apply(target, remedy.Action{
				UE: target.Index, Kind: remedy.ActionRRCRetune, Scale: 3,
				Note: "cross-shard retune",
			})
		})
		f.Drive()
		f.RunTo(horizon)
		f.CloseObs()
		rep := f.Report()
		if s := target.Net.Bearer.RRC().DemotionScale(); s != 3 {
			t.Fatalf("workers=%d: cross-shard retune not applied (scale=%v)", workers, s)
		}
		return rep, rep.Render()
	}

	_, golden := run(1)
	for _, workers := range []int{2, 4} {
		if _, got := run(workers); got != golden {
			t.Fatalf("workers=%d diverged from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, golden, workers, got)
		}
	}
}

// TestLateControlHook: a hook registered between RunTo calls, off a
// multiple of the shared period, fires on the same grid as the hooks
// registered before the run, and does not silence them.
func TestLateControlHook(t *testing.T) {
	for _, cells := range []int{1, 2} {
		scen := fleet.Scenario{Seed: 1, UEs: fleet.UniformUEs(2)}
		if cells > 1 {
			scen.Topology = &fleet.TopologySpec{Cells: cells}
		}
		f, err := fleet.Build(scen, fleet.WithHorizon(11*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		var early, late []simtime.Time
		f.OnControl(2*time.Second, func(tick fleet.ControlTick) {
			if tick.Shard == 0 {
				early = append(early, tick.At)
			}
		})
		f.RunTo(1500 * time.Millisecond)
		f.OnControl(2*time.Second, func(tick fleet.ControlTick) {
			if tick.Shard == 0 {
				late = append(late, tick.At)
			}
		})
		f.RunTo(11 * time.Second)
		if len(early) != 5 || len(late) != 5 {
			t.Fatalf("%d cell(s): hooks fired %d and %d times, want 5 each (early %v, late %v)",
				cells, len(early), len(late), early, late)
		}
		if !reflect.DeepEqual(early, late) || late[0] != simtime.Time(2*time.Second) {
			t.Fatalf("%d cell(s): early hook fired at %v, late hook at %v", cells, early, late)
		}
	}
}
