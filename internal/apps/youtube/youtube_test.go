package youtube_test

import (
	"testing"
	"time"

	"repro/internal/apps/youtube"
	"repro/internal/fleet"
	"repro/internal/radio"
	"repro/internal/simtime"
	"repro/internal/uisim"
)

func newBed(t *testing.T, seed int64, cfg youtube.Config, prof *radio.Profile) *fleet.UE {
	t.Helper()
	b := fleet.MustOneUE(seed, prof, fleet.UESpec{YouTube: cfg, DisableQxDM: true})
	b.YouTube.Connect()
	b.K.RunUntil(2 * time.Second)
	return b
}

// watch plays a video to completion and returns its stats.
func watch(t *testing.T, b *fleet.UE, id string, maxSim time.Duration) youtube.PlaybackStats {
	t.Helper()
	v, err := b.Servers.YouTube.Video(id)
	if err != nil {
		t.Fatal(err)
	}
	var stats youtube.PlaybackStats
	done := false
	b.YouTube.OnPlaybackDone(func(s youtube.PlaybackStats) { stats, done = s, true })
	b.YouTube.PlayVideo(v)
	b.K.RunUntil(b.K.Now() + maxSim)
	if !done {
		t.Fatalf("video %s (%ds) did not finish within %v", id, v.DurationS, maxSim)
	}
	return stats
}

func TestSearchPopulatesResults(t *testing.T) {
	b := newBed(t, 1, youtube.Config{}, nil)
	in := uisim.NewInstrumentation(b.K, b.YouTube.Screen)
	if _, err := in.EnterText(uisim.Signature{ID: youtube.IDSearchBox}, "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.PressEnter(uisim.Signature{ID: youtube.IDSearchBox}); err != nil {
		t.Fatal(err)
	}
	b.K.RunUntil(b.K.Now() + 10*time.Second)
	results := b.YouTube.Screen.Root().FindAll(uisim.Signature{ID: youtube.IDResultItem})
	if len(results) != 10 {
		t.Fatalf("results = %d, want 10", len(results))
	}
	if results[0].Desc != "c0" {
		t.Fatalf("first result desc = %q, want video id", results[0].Desc)
	}
}

func TestUnthrottledPlaybackNoStalls(t *testing.T) {
	b := newBed(t, 2, youtube.Config{}, nil)
	st := watch(t, b, "a1", 10*time.Minute)
	if !st.Done {
		t.Fatal("not done")
	}
	if st.Stalls != 0 {
		t.Fatalf("stalls = %d on unthrottled LTE", st.Stalls)
	}
	if st.RebufferRatio() > 0.01 {
		t.Fatalf("rebuffer ratio = %v, want ~0", st.RebufferRatio())
	}
	if st.InitialLoading <= 0 || st.InitialLoading > 10*time.Second {
		t.Fatalf("initial loading = %v", st.InitialLoading)
	}
	if st.AdPlayed {
		t.Fatal("ad played with ads disabled")
	}
}

func TestThrottledPolicerCausesRebuffering(t *testing.T) {
	b := newBed(t, 3, youtube.Config{}, nil)
	b.Throttle(200e3) // LTE -> policer at 200 kbps, below video bitrate
	st := watch(t, b, "a1", 60*time.Minute)
	if st.Stalls == 0 {
		t.Fatal("no stalls under a 200kbps policer")
	}
	if st.RebufferRatio() < 0.1 {
		t.Fatalf("rebuffer ratio = %v, want substantial", st.RebufferRatio())
	}
}

func TestThrottlingInflatesInitialLoading(t *testing.T) {
	free := watch(t, newBed(t, 4, youtube.Config{}, nil), "b2", 10*time.Minute)
	bThr := newBed(t, 4, youtube.Config{}, nil)
	bThr.Throttle(200e3)
	capped := watch(t, bThr, "b2", 60*time.Minute)
	if capped.InitialLoading < 3*free.InitialLoading {
		t.Fatalf("throttled initial loading %v not >> unthrottled %v",
			capped.InitialLoading, free.InitialLoading)
	}
}

func TestProgressBarTracksStalls(t *testing.T) {
	b := newBed(t, 5, youtube.Config{}, nil)
	b.Throttle(200e3)
	shows, hides := 0, 0
	wasShown := false
	b.YouTube.Screen.OnDraw(func(simtime.Time) {
		bar := b.YouTube.Screen.Root().Find(uisim.Signature{ID: youtube.IDPlayerProgress})
		if bar.Shown() && !wasShown {
			shows++
		}
		if !bar.Shown() && wasShown {
			hides++
		}
		wasShown = bar.Shown()
	})
	st := watch(t, b, "a1", 60*time.Minute)
	// One initial-loading cycle plus one per stall.
	if shows < 1+st.Stalls || hides < st.Stalls {
		t.Fatalf("progress bar cycles (show=%d hide=%d) inconsistent with %d stalls",
			shows, hides, st.Stalls)
	}
}

func TestAdPreloadsMainVideoOnWiFi(t *testing.T) {
	// Pick a video that carries an ad (AdEvery=3 -> digits 0,3,6,9). With
	// preload enabled (WiFi behaviour), the main video buffers during the
	// ad and starts with no further spinner.
	prof := radio.ProfileWiFi()
	withAds := newBed(t, 6, youtube.Config{AdsEnabled: true, PreloadDuringAd: true}, prof)
	stAd := watch(t, withAds, "d3", 20*time.Minute)
	if !stAd.AdPlayed {
		t.Fatal("ad did not play")
	}
	noAds := newBed(t, 6, youtube.Config{}, radio.ProfileWiFi())
	stNo := watch(t, noAds, "d3", 20*time.Minute)
	if stNo.AdPlayed {
		t.Fatal("unexpected ad")
	}
	if stAd.MainLoading >= stNo.InitialLoading {
		t.Fatalf("preloaded main loading (%v) not shorter than cold (%v)",
			stAd.MainLoading, stNo.InitialLoading)
	}
	// Time-to-content (click to main playback) is still longer with an ad.
	if stAd.InitialLoading <= stNo.InitialLoading {
		t.Fatalf("time to content with ad (%v) not longer than without (%v)",
			stAd.InitialLoading, stNo.InitialLoading)
	}
}

func TestAdCellularDefersMainFetch(t *testing.T) {
	// §7.6 cellular behaviour: no preload — the main video is requested
	// when the ad ends, so the user sees a second loading spinner and the
	// total spinner time roughly doubles.
	b := newBed(t, 16, youtube.Config{AdsEnabled: true}, nil)
	st := watch(t, b, "d3", 20*time.Minute)
	if !st.AdPlayed {
		t.Fatal("ad did not play")
	}
	if st.MainLoading <= 0 {
		t.Fatal("main video loaded instantly despite deferred fetch")
	}
	if st.AdLoading <= 0 {
		t.Fatal("ad loading not measured")
	}
}

func TestSkipAdButton(t *testing.T) {
	b := newBed(t, 7, youtube.Config{AdsEnabled: true}, nil)
	v, err := b.Servers.YouTube.Video("d3")
	if err != nil {
		t.Fatal(err)
	}
	in := uisim.NewInstrumentation(b.K, b.YouTube.Screen)
	var stats youtube.PlaybackStats
	done := false
	b.YouTube.OnPlaybackDone(func(s youtube.PlaybackStats) { stats, done = s, true })
	b.YouTube.PlayVideo(v)
	// Wait for the skip button, click it.
	clicked := false
	stop := b.K.Ticker(200*time.Millisecond, func() {
		if clicked {
			return
		}
		if _, err := in.Click(uisim.Signature{ID: youtube.IDSkipAd}); err == nil {
			clicked = true
		}
	})
	b.K.RunUntil(b.K.Now() + 20*time.Minute)
	stop()
	if !clicked {
		t.Fatal("skip button never clickable")
	}
	if !done {
		t.Fatal("playback did not finish")
	}
	if !stats.AdPlayed {
		t.Fatal("ad stats missing")
	}
	adInfo, _ := b.Servers.YouTube.Video(v.AdID)
	// Skipping must beat watching the whole ad: total initial loading stays
	// below ad duration + main loading headroom.
	if stats.InitialLoading > time.Duration(adInfo.DurationS)*time.Second {
		t.Fatalf("initial loading %v suggests the full %ds ad played despite skip",
			stats.InitialLoading, adInfo.DurationS)
	}
}

func TestCatalogDeterministic(t *testing.T) {
	b := newBed(t, 8, youtube.Config{}, nil)
	v1, err1 := b.Servers.YouTube.Video("q5")
	v2, err2 := b.Servers.YouTube.Video("q5")
	if err1 != nil || err2 != nil || v1 != v2 {
		t.Fatalf("catalog not deterministic: %+v vs %+v", v1, v2)
	}
	if _, err := b.Servers.YouTube.Video("zz9"); err == nil {
		t.Fatal("accepted bogus id")
	}
	if got := len(b.Servers.YouTube.Search("q")); got != 10 {
		t.Fatalf("search size %d", got)
	}
	if b.Servers.YouTube.Search("Q") != nil {
		t.Fatal("uppercase keyword should be empty")
	}
}

func Test3GSlowerInitialLoadingThanLTE(t *testing.T) {
	lte := watch(t, newBed(t, 9, youtube.Config{}, radio.ProfileLTE()), "e4", 20*time.Minute)
	g3 := watch(t, newBed(t, 9, youtube.Config{}, radio.Profile3G()), "e4", 20*time.Minute)
	if g3.InitialLoading <= lte.InitialLoading {
		t.Fatalf("3G initial loading (%v) not slower than LTE (%v)",
			g3.InitialLoading, lte.InitialLoading)
	}
}
