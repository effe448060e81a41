package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/apps/facebook"
	"repro/internal/apps/serversim"
	"repro/internal/core/analyzer"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/simtime"
	"repro/internal/uisim"
)

// barCycles records, from screen draws, every show/hide transition of a
// progress-bar-like view — the simulation's stand-in for the paper's 60fps
// screen recording ground truth.
type barCycles struct {
	Shows, Hides []simtime.Time
	wasShown     bool
}

func watchBar(screen *uisim.Screen, sig uisim.Signature) *barCycles {
	bc := &barCycles{}
	screen.OnDraw(func(at simtime.Time) {
		v := screen.Root().Find(sig)
		shown := v != nil && v.Shown()
		if shown && !bc.wasShown {
			bc.Shows = append(bc.Shows, at)
		}
		if !shown && bc.wasShown {
			bc.Hides = append(bc.Hides, at)
		}
		bc.wasShown = shown
	})
	return bc
}

// errSample is one |measured - truth| comparison.
type errSample struct {
	measured, truth time.Duration
}

func (e errSample) absErr() time.Duration {
	d := e.measured - e.truth
	if d < 0 {
		d = -d
	}
	return d
}

func summarizeErr(samples []errSample) (avgErr time.Duration, maxRatio float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	var sum time.Duration
	minTruth := time.Duration(math.MaxInt64)
	for _, s := range samples {
		sum += s.absErr()
		if s.truth < minTruth && s.truth > 0 {
			minTruth = s.truth
		}
	}
	avgErr = sum / time.Duration(len(samples))
	// The paper upper-bounds the error ratio with the shortest t_screen.
	if minTruth > 0 && minTruth != time.Duration(math.MaxInt64) {
		maxRatio = avgErr.Seconds() / minTruth.Seconds()
	}
	return avgErr, maxRatio
}

// accuracyPostUpdates measures Facebook post-update latency against screen
// ground truth, and returns the CPU overhead observed during the run.
func accuracyPostUpdates(seed int64, reps int) (samples []errSample, cpuOverhead float64) {
	b := fleet.MustOneUE(seed, radio.ProfileLTE(), fleet.UESpec{DisableQxDM: true})
	b.Facebook.Connect()
	b.K.RunUntil(2 * time.Second)
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.Facebook.Screen, log)
	d := controller.NewFacebookDriver(c, false)

	// Per-rep records, paired after the run: the done callback can fire
	// before the draw commits (the tree updates ahead of the screen), so
	// pairing must happen once both timestamps exist.
	entries := make([]qoe.BehaviorEntry, reps)
	screenAts := make([]simtime.Time, reps)
	for i := range screenAts {
		screenAts[i] = -1
	}
	var run func(i int)
	run = func(i int) {
		if i >= reps {
			return
		}
		stamp, err := d.UploadPost(facebook.PostStatus, i, func(e qoe.BehaviorEntry) {
			entries[i] = e
			b.K.After(2*time.Second, func() { run(i + 1) })
		})
		if err != nil {
			return
		}
		// Screen ground truth: the first draw showing this stamp.
		b.Facebook.Screen.WatchScreen(func(r *uisim.View) bool {
			for _, v := range r.FindAll(uisim.Signature{ID: facebook.IDFeedItem}) {
				if v.Shown() && containsStr(v.Text(), stamp) {
					return true
				}
			}
			return false
		}, func(at simtime.Time) { screenAts[i] = at })
	}
	run(0)
	b.K.RunUntil(b.K.Now() + time.Duration(reps+2)*10*time.Second)

	for i := 0; i < reps; i++ {
		if entries[i].Observed && screenAts[i] >= 0 {
			lat := analyzer.Calibrate(entries[i])
			truth := time.Duration(screenAts[i] - entries[i].Start)
			samples = append(samples, errSample{lat.Calibrated, truth})
		}
	}

	// Table 3 CPU overhead: instrumentation parse CPU relative to the app's
	// own CPU during the most compute-intensive operation.
	app := b.Facebook.Screen.AppCPU()
	parse := c.Instrumentation().ParseCPU()
	if app > 0 {
		cpuOverhead = parse.Seconds() / app.Seconds()
	}
	return samples, cpuOverhead
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// accuracyPullToUpdate compares app-triggered bar-cycle measurements with
// screen truth.
func accuracyPullToUpdate(seed int64, reps int) []errSample {
	b := fleet.MustOneUE(seed, radio.ProfileLTE(), fleet.UESpec{DisableQxDM: true})
	b.Facebook.Connect()
	b.K.RunUntil(2 * time.Second)
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.Facebook.Screen, log)
	d := controller.NewFacebookDriver(c, false)
	bars := watchBar(b.Facebook.Screen, uisim.Signature{ID: facebook.IDFeedProgress})

	var entries []qoe.BehaviorEntry
	var run func(i int)
	run = func(i int) {
		if i >= reps {
			return
		}
		err := d.PullToUpdate(func(e qoe.BehaviorEntry) {
			entries = append(entries, e)
			b.K.After(2*time.Second, func() { run(i + 1) })
		})
		if err != nil {
			return
		}
	}
	run(0)
	b.K.RunUntil(b.K.Now() + time.Duration(reps+2)*15*time.Second)
	return pairCycles(entries, bars)
}

// pairCycles aligns the k-th measured bar cycle with the k-th screen cycle.
func pairCycles(entries []qoe.BehaviorEntry, bars *barCycles) []errSample {
	var out []errSample
	for i, e := range entries {
		if !e.Observed || i >= len(bars.Shows) || i >= len(bars.Hides) {
			break
		}
		truth := time.Duration(bars.Hides[i] - bars.Shows[i])
		out = append(out, errSample{analyzer.Calibrate(e).Calibrated, truth})
	}
	return out
}

// accuracyYouTube measures initial loading (and rebuffers under throttle)
// against screen truth.
func accuracyYouTube(seed int64, videos []string, throttle bool) (initial, rebuffer []errSample) {
	b := fleet.MustOneUE(seed, radio.ProfileLTE(), fleet.UESpec{DisableQxDM: true})
	b.YouTube.Connect()
	b.K.RunUntil(time.Second)
	if throttle {
		b.Throttle(220e3)
	}
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.YouTube.Screen, log)
	c.Timeout = 60 * time.Minute
	d := &controller.YouTubeDriver{C: c}
	bars := watchBar(b.YouTube.Screen, uisim.Signature{ID: "com.google.android.youtube:id/player_progress"})

	var run func(i int)
	run = func(i int) {
		if i >= len(videos) {
			return
		}
		kw := videos[i][:1]
		idx := int(videos[i][1] - '0')
		prevShows := len(bars.Shows)
		err := d.SearchAndPlay(kw, idx, func(st controller.WatchStats) {
			if st.InitialLoading.Observed && len(bars.Shows) > prevShows && len(bars.Hides) > prevShows {
				truth := time.Duration(bars.Hides[prevShows] - st.InitialLoading.Start)
				initial = append(initial, errSample{analyzer.Calibrate(st.InitialLoading).Calibrated, truth})
			}
			// Rebuffer cycles follow the initial-loading cycle.
			for j, r := range st.Rebuffers {
				k := prevShows + 1 + j
				if k < len(bars.Shows) && k < len(bars.Hides) {
					truth := time.Duration(bars.Hides[k] - bars.Shows[k])
					rebuffer = append(rebuffer, errSample{analyzer.Calibrate(r).Calibrated, truth})
				}
			}
			b.K.After(3*time.Second, func() { run(i + 1) })
		})
		if err != nil {
			return
		}
	}
	run(0)
	b.K.RunUntil(b.K.Now() + 3*time.Hour)
	return initial, rebuffer
}

// accuracyWeb measures page-load latency against screen truth.
func accuracyWeb(seed int64, pages int) []errSample {
	b := fleet.MustOneUE(seed, radio.ProfileLTE(), fleet.UESpec{DisableQxDM: true})
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.Browser.Screen, log)
	d := &controller.BrowserDriver{C: c}
	bars := watchBar(b.Browser.Screen, uisim.Signature{ID: "com.android.browser:id/load_progress"})

	urls := make([]string, pages)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/page-%d", serversim.WebHostBase, i)
	}
	var entries []qoe.BehaviorEntry
	d.LoadPages(urls, 3*time.Second, func(es []qoe.BehaviorEntry) { entries = es })
	b.K.RunUntil(time.Duration(pages+2) * time.Minute)

	// Page loads are user-triggered: truth is ENTER press -> bar hidden.
	var out []errSample
	for i, e := range entries {
		if !e.Observed || i >= len(bars.Hides) {
			break
		}
		truth := time.Duration(bars.Hides[i] - e.Start)
		out = append(out, errSample{analyzer.Calibrate(e).Calibrated, truth})
	}
	return out
}

// accuracyMapping measures the IP-to-RLC mapping ratios on 3G (Table 3's
// 99.52% / 88.83%). Each direction is evaluated on bulk traffic of that
// direction — photo uploads for the uplink, web page downloads for the
// downlink — since pure-ACK packets (one short PDU each) rarely overlap a
// capture-lost PDU and would dilute the ratio.
func accuracyMapping(seed int64) (ul, dl float64) {
	// Uplink: 3 photo posts (~380 KB each).
	b := fleet.MustOneUE(seed, radio.Profile3G(), fleet.UESpec{})
	b.Facebook.Connect()
	b.K.RunUntil(3 * time.Second)
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.Facebook.Screen, log)
	d := controller.NewFacebookDriver(c, false)
	var run func(i int)
	run = func(i int) {
		if i >= 3 {
			return
		}
		d.UploadPost(facebook.PostPhotos, i, func(qoe.BehaviorEntry) {
			b.K.After(time.Second, func() { run(i + 1) })
		})
	}
	run(0)
	b.K.RunUntil(b.K.Now() + 10*time.Minute)
	// Kick off the uplink analysis asynchronously: it overlaps the
	// downlink bed's simulation below (the sim/analyze pipeline).
	ulPending := b.AnalyzeAsync(log)

	// Downlink: 8 page loads (~0.2 MB of download data each).
	b2 := fleet.MustOneUE(seed+1, radio.Profile3G(), fleet.UESpec{})
	log2 := &qoe.BehaviorLog{}
	c2 := controller.New(b2.K, b2.Browser.Screen, log2)
	d2 := &controller.BrowserDriver{C: c2}
	urls := make([]string, 8)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/map-%d", serversim.WebHostBase, i)
	}
	d2.LoadPages(urls, 2*time.Second, nil)
	b2.K.RunUntil(10 * time.Minute)
	dl = analyzer.NewCrossLayer(b2.Session(log2)).DLMap.Ratio()
	ul = ulPending.Wait().ULMap.Ratio()
	return ul, dl
}

// RunAccuracy regenerates Table 3 and Fig. 6.
func RunAccuracy(seed int64, p Params) *Result {
	r := &Result{ID: "table3", Title: "Tool accuracy and overhead (Table 3, Fig. 6)"}

	postErr, cpu := accuracyPostUpdates(seed, 15)
	pullErr := accuracyPullToUpdate(seed+1, 10)
	ytInit, _ := accuracyYouTube(seed+2, []string{"a1", "b2", "c4"}, false)
	_, ytRebuf := accuracyYouTube(seed+3, []string{"a1"}, true)
	webErr := accuracyWeb(seed+4, 10)
	ulMap, dlMap := accuracyMapping(seed + 5)

	fig6 := &metrics.Table{
		Title:   "Fig. 6: error ratio of user-perceived latency measurements",
		Headers: []string{"Metric", "Samples", "Avg |error|", "Error ratio (upper bound)"},
	}
	addRow := func(name string, samples []errSample, key string) {
		avg, ratio := summarizeErr(samples)
		fig6.AddRow(name, fmt.Sprintf("%d", len(samples)),
			fmt.Sprintf("%.1f ms", avg.Seconds()*1000), fmtPct(ratio))
		r.Set(key+"_err_ms", avg.Seconds()*1000)
		r.Set(key+"_ratio", ratio)
		r.Set(key+"_n", float64(len(samples)))
	}
	addRow("Facebook post updates", postErr, "post")
	addRow("Facebook pull-to-update", pullErr, "pull")
	addRow("YouTube initial loading", ytInit, "yt_init")
	addRow("YouTube rebuffering", ytRebuf, "yt_rebuf")
	addRow("Web browsing page loading", webErr, "web")

	t3 := &metrics.Table{Title: "Table 3: tool accuracy and overhead summary", Headers: []string{"Item", "Value"}}
	allErr := append(append(append(append(append([]errSample{}, postErr...), pullErr...), ytInit...), ytRebuf...), webErr...)
	avgAll, _ := summarizeErr(allErr)
	t3.AddRow("User-perceived latency measurement error", fmt.Sprintf("%.1f ms (paper: <=40 ms)", avgAll.Seconds()*1000))
	t3.AddRow("Transport/network to RLC mapping ratio (UL)", fmtPct(ulMap)+" (paper: 99.52%)")
	t3.AddRow("Transport/network to RLC mapping ratio (DL)", fmtPct(dlMap)+" (paper: 88.83%)")
	t3.AddRow("CPU overhead", fmtPct(cpu)+" (paper: 6.18%)")
	r.Set("latency_err_ms", avgAll.Seconds()*1000)
	r.Set("mapping_ul", ulMap)
	r.Set("mapping_dl", dlMap)
	r.Set("cpu_overhead", cpu)

	r.Tables = []*metrics.Table{t3, fig6}
	return r
}
