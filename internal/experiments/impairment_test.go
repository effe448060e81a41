package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/youtube"
	"repro/internal/core/analyzer"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/faults"
	"repro/internal/fleet"
)

// acceptanceRun executes the robustness acceptance scenario — 2% GE burst
// loss, a 3 s bearer outage mid-playback, and QxDM disabled partway through
// the run — and returns a fingerprint of everything observable, so two runs
// can be compared byte-for-byte.
func acceptanceRun(t *testing.T, seed int64) string {
	t.Helper()
	ge := faults.GEForMeanLoss(0.02, 4)
	b := fleet.MustOneUE(seed, nil, fleet.UESpec{
		Faults: &faults.Plan{
			GE:      &ge,
			Outages: []faults.Outage{{Start: 20 * time.Second, Duration: 3 * time.Second}},
		},
		YouTube: youtube.Config{StallTimeout: 60 * time.Second},
	})
	b.YouTube.Connect()
	b.K.RunUntil(2 * time.Second)
	// Carrier throttling on top of the impairment chain: keeps the playback
	// buffer shallow so the outage shows up at the UI layer, and exercises
	// the fault-then-throttle qdisc composition.
	b.Throttle(450e3)

	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.YouTube.Screen, log)
	c.Timeout = 30 * time.Minute
	c.Instrumentation().SetPollInterval(150 * time.Millisecond)
	d := &controller.YouTubeDriver{C: c}

	var st controller.WatchStats
	var got bool
	// "y2" is one of the longest catalog videos, so the t=20s outage lands
	// mid-playback.
	if err := d.SearchAndPlay("y", 2, func(s controller.WatchStats) { st, got = s, true }); err != nil {
		t.Fatalf("SearchAndPlay: %v", err)
	}
	// Kill radio logging mid-run: the analyzer must warn, not fail.
	b.K.After(38*time.Second, func() { b.QxDM.SetEnabled(false) })
	b.K.RunUntil(b.K.Now() + 30*time.Minute)

	if !got || !st.InitialLoading.Observed {
		t.Fatal("playback never started under impairment")
	}
	if len(st.Rebuffers) < 1 {
		t.Fatalf("expected >=1 rebuffer event under 2%% loss + 3s outage, got %d", len(st.Rebuffers))
	}
	if n := b.Net.Bearer.OutageCount(); n != 1 {
		t.Fatalf("outage count = %d, want 1", n)
	}

	sess := b.Session(log)
	xl := analyzer.NewCrossLayer(sess)
	retx := 0
	for _, f := range xl.Flows.Flows {
		retx += f.Retransmissions
	}
	if retx == 0 {
		t.Fatal("no TCP retransmissions recorded under 2% burst loss")
	}
	truncated := false
	for _, w := range xl.Warnings {
		if strings.Contains(w, "truncated") {
			truncated = true
		}
	}
	if !truncated {
		t.Fatalf("analyzer did not warn about the truncated QxDM log; warnings: %v", xl.Warnings)
	}

	var lastPkt int64
	if n := len(sess.Packets); n > 0 {
		lastPkt = int64(sess.Packets[n-1].At)
	}
	return fmt.Sprintf("init=%d end=%d rebuf=%d stalls=%d retx=%d dropsUL=%d dropsDL=%d pkts=%d last=%d warn=%q",
		st.InitialLoading.RawLatency(), st.PlaybackEnd, int(st.RebufferRatio()*1e6),
		len(st.Rebuffers), retx, b.FaultUL.Dropped(), b.FaultDL.Dropped(),
		len(sess.Packets), lastPkt, strings.Join(xl.Warnings, "|"))
}

// TestImpairmentAcceptance is the PR's acceptance scenario: the full
// pipeline survives burst loss plus a mid-playback bearer outage with no
// panic and no kernel deadlock, the transport layer shows the injected
// loss, the UI layer shows the stall, the analyzer flags the truncated
// radio log — and the entire run is byte-identical when repeated with the
// same seed.
func TestImpairmentAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	a := acceptanceRun(t, 7)
	b := acceptanceRun(t, 7)
	if a != b {
		t.Fatalf("same seed produced different runs:\n run1: %s\n run2: %s", a, b)
	}
	c := acceptanceRun(t, 8)
	if a == c {
		t.Fatal("different seeds produced identical fingerprints (suspicious)")
	}
}

// TestImpairmentSweepSmoke runs the registered sweep end-to-end and checks
// the cross-layer signal direction: more loss, more retransmissions.
func TestImpairmentSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	r := RunImpairmentSweep(11, Params{})
	if r.Values["loss_0pct_retx"] > 0 {
		t.Fatalf("retransmissions on a perfect network: %v", r.Values["loss_0pct_retx"])
	}
	if r.Values["loss_2pct_retx"] == 0 {
		t.Fatal("no retransmissions under 2% GE loss")
	}
	if r.Values["loss_2pct_drops"] == 0 {
		t.Fatal("fault chains dropped nothing under 2% GE loss")
	}
	if r.Values["outage_3s_count"] != 1 {
		t.Fatalf("outage_3s_count = %v, want 1", r.Values["outage_3s_count"])
	}
}
