package controller_test

import (
	"testing"
	"time"

	"repro/internal/apps/facebook"
	"repro/internal/apps/serversim"
	"repro/internal/core/analyzer"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/fleet"
	"repro/internal/radio"
	"repro/internal/simtime"
	"repro/internal/uisim"
)

func fbBed(t *testing.T, seed int64, cfg facebook.Config) (*fleet.UE, *controller.Controller, *qoe.BehaviorLog) {
	t.Helper()
	b := fleet.MustOneUE(seed, radio.ProfileLTE(), fleet.UESpec{Facebook: cfg})
	b.Facebook.Connect()
	b.K.RunUntil(2 * time.Second)
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.Facebook.Screen, log)
	return b, c, log
}

func TestUploadPostStatusMeasurement(t *testing.T) {
	b, c, log := fbBed(t, 1, facebook.DefaultConfig())
	d := controller.NewFacebookDriver(c, false)

	// Ground truth: when the stamped item is actually drawn on screen.
	var screenAt simtime.Time = -1
	entryDone := false
	if _, err := d.UploadPost(facebook.PostStatus, 1, func(e qoe.BehaviorEntry) { entryDone = true }); err != nil {
		t.Fatal(err)
	}
	stamp := log.Entries // not yet populated; watch generically
	_ = stamp
	b.Facebook.Screen.WatchScreen(func(r *uisim.View) bool {
		v := r.Find(uisim.Signature{ID: "com.facebook.katana:id/feed_item"})
		return v != nil
	}, func(at simtime.Time) { screenAt = at })

	b.K.RunUntil(b.K.Now() + 30*time.Second)
	if !entryDone || len(log.Entries) != 1 {
		t.Fatalf("entry not logged: %d", len(log.Entries))
	}
	e := log.Entries[0]
	if !e.Observed || e.Kind != qoe.UserTriggered || e.Action != "upload_post_status" {
		t.Fatalf("bad entry: %+v", e)
	}
	lat := analyzer.Calibrate(e)
	if lat.Calibrated <= 0 || lat.Calibrated > 2*time.Second {
		t.Fatalf("status post latency = %v, want sub-2s local echo", lat.Calibrated)
	}
	// Table 3 claim: the calibrated measurement tracks the true screen time
	// within tens of milliseconds.
	if screenAt < 0 {
		t.Fatal("no screen ground truth")
	}
	truth := time.Duration(screenAt - e.Start)
	diff := lat.Calibrated - truth
	if diff < 0 {
		diff = -diff
	}
	if diff > 40*time.Millisecond {
		t.Fatalf("measurement error %v vs ground truth %v (measured %v)", diff, truth, lat.Calibrated)
	}
}

func TestUploadPhotosSlowerAndNetworkBound(t *testing.T) {
	b, c, log := fbBed(t, 2, facebook.DefaultConfig())
	d := controller.NewFacebookDriver(c, false)
	if _, err := d.UploadPost(facebook.PostPhotos, 1, nil); err != nil {
		t.Fatal(err)
	}
	b.K.RunUntil(b.K.Now() + 2*time.Minute)
	if len(log.Entries) != 1 || !log.Entries[0].Observed {
		t.Fatal("photo upload not measured")
	}
	sess := b.Session(log)
	cl := analyzer.NewCrossLayer(sess)
	lat := analyzer.Calibrate(log.Entries[0])
	split := cl.SplitDeviceNetwork(lat)
	if split.Flow == nil {
		t.Fatal("no responsible flow for photo upload")
	}
	if split.Network <= 0 || split.Device <= 0 {
		t.Fatalf("split degenerate: %+v", split)
	}
	// Finding 2: network dominates the photo posting latency.
	if split.Network.Seconds()/split.UserPerceived.Seconds() < 0.4 {
		t.Fatalf("network share %.2f too small for a 380KB upload",
			split.Network.Seconds()/split.UserPerceived.Seconds())
	}
}

func TestStatusPostNetworkOffCriticalPath(t *testing.T) {
	b, c, log := fbBed(t, 3, facebook.DefaultConfig())
	d := controller.NewFacebookDriver(c, false)
	if _, err := d.UploadPost(facebook.PostStatus, 1, nil); err != nil {
		t.Fatal(err)
	}
	b.K.RunUntil(b.K.Now() + 30*time.Second)
	sess := b.Session(log)
	cl := analyzer.NewCrossLayer(sess)
	lat := analyzer.Calibrate(log.Entries[0])
	split := cl.SplitDeviceNetwork(lat)
	// Finding 1: the upload's TCP ACKs fall outside the QoE window; device
	// time dominates.
	if split.Device.Seconds()/split.UserPerceived.Seconds() < 0.8 {
		t.Fatalf("device share %.2f; local echo should dominate (%+v)",
			split.Device.Seconds()/split.UserPerceived.Seconds(), split)
	}
}

func TestPullToUpdateAppTriggered(t *testing.T) {
	b, c, log := fbBed(t, 4, facebook.DefaultConfig())
	d := controller.NewFacebookDriver(c, false)
	doneEntries := 0
	if err := d.PullToUpdate(func(qoe.BehaviorEntry) { doneEntries++ }); err != nil {
		t.Fatal(err)
	}
	b.K.RunUntil(b.K.Now() + 30*time.Second)
	if doneEntries != 1 || len(log.Entries) != 1 {
		t.Fatalf("entries = %d", len(log.Entries))
	}
	e := log.Entries[0]
	if e.Kind != qoe.AppTriggered || !e.Observed {
		t.Fatalf("bad entry: %+v", e)
	}
	lat := analyzer.Calibrate(e)
	if lat.Calibrated <= 0 || lat.Calibrated > 5*time.Second {
		t.Fatalf("pull-to-update latency = %v", lat.Calibrated)
	}
}

func TestSelfUpdateMeasurement(t *testing.T) {
	b, c, _ := fbBed(t, 5, facebook.DefaultConfig())
	d := controller.NewFacebookDriver(c, false)
	var entry qoe.BehaviorEntry
	got := false
	d.WaitSelfUpdate(func(e qoe.BehaviorEntry) { entry, got = e, true })
	// A friend posts 10s from now; the app self-updates.
	b.K.After(10*time.Second, func() { b.Servers.Facebook.InjectFriendPost("f1", 4000) })
	b.K.RunUntil(b.K.Now() + 2*time.Minute)
	if !got || !entry.Observed {
		t.Fatal("self-update not observed")
	}
	if entry.Start < simtime.Time(10*time.Second) {
		t.Fatalf("update started at %v, before the friend posted", entry.Start)
	}
}

func TestBrowserDriverMeasuresPageLoad(t *testing.T) {
	b := fleet.MustOneUE(6, nil, fleet.UESpec{})
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.Browser.Screen, log)
	d := &controller.BrowserDriver{C: c}
	var appDone simtime.Time = -1
	b.Browser.OnLoaded(func(u string, at simtime.Time) { appDone = at })
	urls := []string{serversim.WebHostBase + "/p1", serversim.WebHostBase + "/p2"}
	var entries []qoe.BehaviorEntry
	d.LoadPages(urls, 5*time.Second, func(es []qoe.BehaviorEntry) { entries = es })
	b.K.RunUntil(5 * time.Minute)
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}
	for _, e := range entries {
		if !e.Observed {
			t.Fatalf("unobserved load: %+v", e)
		}
		lat := analyzer.Calibrate(e)
		if lat.Calibrated <= 0 || lat.Calibrated > time.Minute {
			t.Fatalf("page load latency = %v", lat.Calibrated)
		}
	}
	if appDone < 0 {
		t.Fatal("app never reported loaded")
	}
	// The second load must not have ended instantly on the first page's
	// stale state.
	if entries[1].RawLatency() < 50*time.Millisecond {
		t.Fatalf("second load %v suspiciously fast (stale-state bug)", entries[1].RawLatency())
	}
}

func TestYouTubeDriverThrottledRebuffering(t *testing.T) {
	b := fleet.MustOneUE(7, nil, fleet.UESpec{DisableQxDM: true})
	b.YouTube.Connect()
	b.K.RunUntil(time.Second)
	b.Throttle(200e3)
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.YouTube.Screen, log)
	c.Timeout = 30 * time.Minute
	d := &controller.YouTubeDriver{C: c}
	var stats controller.WatchStats
	finished := false
	if err := d.SearchAndPlay("a", 1, func(s controller.WatchStats) { stats, finished = s, true }); err != nil {
		t.Fatal(err)
	}
	b.K.RunUntil(90 * time.Minute)
	if !finished {
		t.Fatal("watch did not finish")
	}
	if !stats.InitialLoading.Observed {
		t.Fatal("initial loading not measured")
	}
	if len(stats.Rebuffers) == 0 {
		t.Fatal("no rebuffer events measured under throttling")
	}
	if r := stats.RebufferRatio(); r < 0.05 || r > 1 {
		t.Fatalf("rebuffer ratio = %v", r)
	}
	// The log carries the same events.
	if got := len(log.ByAction("rebuffer")); got != len(stats.Rebuffers) {
		t.Fatalf("log rebuffers %d != stats %d", got, len(stats.Rebuffers))
	}
}

func TestYouTubeDriverUnthrottledCleanPlayback(t *testing.T) {
	b := fleet.MustOneUE(8, nil, fleet.UESpec{DisableQxDM: true})
	b.YouTube.Connect()
	b.K.RunUntil(time.Second)
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.YouTube.Screen, log)
	c.Timeout = 10 * time.Minute
	d := &controller.YouTubeDriver{C: c}
	var stats controller.WatchStats
	finished := false
	if err := d.SearchAndPlay("b", 0, func(s controller.WatchStats) { stats, finished = s, true }); err != nil {
		t.Fatal(err)
	}
	b.K.RunUntil(20 * time.Minute)
	if !finished {
		t.Fatal("watch did not finish")
	}
	if len(stats.Rebuffers) != 0 {
		t.Fatalf("%d rebuffers on unthrottled LTE", len(stats.Rebuffers))
	}
	if stats.RebufferRatio() != 0 {
		t.Fatalf("ratio = %v", stats.RebufferRatio())
	}
	il := analyzer.Calibrate(stats.InitialLoading)
	if il.Calibrated <= 0 || il.Calibrated > 15*time.Second {
		t.Fatalf("initial loading = %v", il.Calibrated)
	}
}

func TestScriptTimingModes(t *testing.T) {
	k := simtime.NewKernel(1)
	var times []simtime.Time
	mkScript := func(preserve bool) *controller.Script {
		return &controller.Script{
			PreserveTiming: preserve,
			Steps: []controller.Step{
				{Delay: time.Second, Run: func(next func()) { times = append(times, k.Now()); next() }},
				{Delay: 2 * time.Second, Run: func(next func()) { times = append(times, k.Now()); next() }},
			},
		}
	}
	done := false
	mkScript(true).Play(k, func() { done = true })
	k.Run()
	if !done || len(times) != 2 {
		t.Fatalf("script incomplete: %v", times)
	}
	if times[0] != simtime.Time(time.Second) || times[1] != simtime.Time(3*time.Second) {
		t.Fatalf("preserved timing wrong: %v", times)
	}
	times = nil
	mkScript(false).Play(k, nil)
	k.Run()
	if times[1]-times[0] > simtime.Time(time.Millisecond) {
		t.Fatalf("back-to-back mode waited: %v", times)
	}
}

func TestControllerErrorOnMissingView(t *testing.T) {
	b := fleet.MustOneUE(9, nil, fleet.UESpec{DisableQxDM: true})
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.Browser.Screen, log)
	d := controller.NewFacebookDriver(c, false) // facebook views on a browser screen
	if _, err := d.UploadPost(facebook.PostStatus, 1, nil); err == nil {
		t.Fatal("driver succeeded against the wrong app")
	}
}

func TestSpeedIndexRecordingOverNetworks(t *testing.T) {
	// The Speed Index extension (§4.2.3 future work): progressive paint
	// frames recorded at screen draws. A slower radio must yield a larger
	// Speed Index for the same page.
	run := func(prof *radio.Profile) (time.Duration, int) {
		b := fleet.MustOneUE(30, prof, fleet.UESpec{DisableQxDM: true})
		log := &qoe.BehaviorLog{}
		c := controller.New(b.K, b.Browser.Screen, log)
		d := &controller.BrowserDriver{C: c}
		rec := controller.NewFrameRecorder(b.Browser.Screen, b.Browser.Completeness)
		var si time.Duration
		var frames int
		err := d.LoadPageSpeedIndex(serversim.WebHostBase+"/si-test", rec,
			func(e qoe.BehaviorEntry, fs []qoe.Frame) {
				si = analyzer.SpeedIndex(e.Start, fs)
				frames = len(fs)
			})
		if err != nil {
			t.Fatal(err)
		}
		b.K.RunUntil(5 * time.Minute)
		return si, frames
	}
	siWiFi, framesWiFi := run(radio.ProfileWiFi())
	si3G, frames3G := run(radio.Profile3G())
	if framesWiFi < 3 || frames3G < 3 {
		t.Fatalf("too few frames recorded: wifi=%d 3g=%d", framesWiFi, frames3G)
	}
	if siWiFi <= 0 || si3G <= 0 {
		t.Fatalf("speed index not positive: wifi=%v 3g=%v", siWiFi, si3G)
	}
	if si3G <= siWiFi {
		t.Fatalf("3G speed index (%v) not worse than WiFi (%v)", si3G, siWiFi)
	}
	// Frames after Stop must not leak into the next recording.
	siAgain, _ := run(radio.ProfileWiFi())
	if siAgain != siWiFi {
		t.Fatalf("speed index not reproducible: %v vs %v", siAgain, siWiFi)
	}
}
