package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps/facebook"
	"repro/internal/apps/serversim"
	"repro/internal/core/analyzer"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/testbed"
)

// feedRun reproduces the §7.4 testbed: a friend posts a status every 2
// minutes; the device under test measures each news-feed update, either
// self-triggered (ListView app 5.0) or via a scroll gesture every 2 minutes
// (WebView app 1.8.3). Returns the update measurements and the cross-layer
// analysis.
func feedRun(seed int64, variant string, prof *radio.Profile, horizon time.Duration) (*analyzer.CrossLayer, []qoe.BehaviorEntry) {
	webView := variant == serversim.VariantWebView
	cfg := facebook.Config{
		Variant:            variant,
		RefreshInterval:    0, // isolate update traffic
		SelfUpdateOnNotify: !webView,
		Subscribe:          true,
	}
	b := testbed.MustNew(testbed.Options{Seed: seed, Profile: prof, Facebook: cfg, DisableQxDM: true})
	b.Facebook.Connect()
	b.K.RunUntil(5 * time.Second)

	n := 0
	b.K.Ticker(2*time.Minute, func() {
		n++
		b.Servers.Facebook.InjectFriendPost(fmt.Sprintf("friend-%d", n), FriendPostBytes)
	})

	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.Facebook.Screen, log)
	c.Timeout = 5 * time.Minute
	d := controller.NewFacebookDriver(c, webView)

	if webView {
		// Gesture-driven updates every 2 minutes.
		var loop func()
		loop = func() {
			d.PullToUpdate(func(qoe.BehaviorEntry) {
				b.K.After(2*time.Minute, loop)
			})
		}
		b.K.After(2*time.Minute+30*time.Second, loop)
	} else {
		// Passive: measure every self-update.
		var loop func()
		loop = func() {
			d.WaitSelfUpdate(func(qoe.BehaviorEntry) { loop() })
		}
		loop()
	}
	b.K.RunUntil(horizon)
	cl := analyzer.NewCrossLayer(b.Session(log))
	return cl, log.ByAction("pull_to_update")
}

// feedHorizon keeps the §7.4 run tractable: 2 simulated hours (~60 updates)
// instead of the paper's 6; the CDF shape is unchanged (see EXPERIMENTS.md).
const feedHorizon = 2 * time.Hour

var feedConds = []struct {
	key     string
	variant string
	prof    func() *radio.Profile
	label   string
}{
	{"lv_lte", serversim.VariantListView, radio.ProfileLTE, "ListView, LTE"},
	{"wv_lte", serversim.VariantWebView, radio.ProfileLTE, "WebView, LTE"},
	{"lv_wifi", serversim.VariantListView, radio.ProfileWiFi, "ListView, WiFi"},
	{"wv_wifi", serversim.VariantWebView, radio.ProfileWiFi, "WebView, WiFi"},
}

// RunFeedDesignCDF regenerates Fig. 14: the updating-time distribution.
func RunFeedDesignCDF(seed int64, p Params) *Result {
	r := &Result{ID: "fig14", Title: "News feed updating time, WebView vs ListView (Fig. 14)"}
	tbl := &metrics.Table{
		Title:   "Fig. 14: pull-to-update latency distribution (seconds)",
		Headers: []string{"Condition", "N", "p10", "p50", "p90", "Mean", "Stddev"},
	}
	series := map[string][]float64{}
	for i, c := range feedConds {
		cl, entries := feedRun(seed+int64(i), c.variant, c.prof(), feedHorizon)
		_ = cl
		var xs []float64
		for _, e := range entries {
			if e.Observed {
				xs = append(xs, analyzer.Calibrate(e).Calibrated.Seconds())
			}
		}
		series[c.label] = xs
		cdf := metrics.NewCDF(xs)
		s := metrics.Summarize(xs)
		tbl.AddRow(c.label, fmt.Sprintf("%d", len(xs)),
			fmtS(cdf.Quantile(0.1)), fmtS(cdf.Quantile(0.5)), fmtS(cdf.Quantile(0.9)),
			fmtS(s.Mean), fmt.Sprintf("%.2f", s.Stddev))
		r.Set(c.key+"_mean_s", s.Mean)
		r.Set(c.key+"_p50_s", cdf.Quantile(0.5))
		r.Set(c.key+"_stddev_s", s.Stddev)
		r.Set(c.key+"_n", float64(len(xs)))
	}
	if lv := r.Values["lv_lte_mean_s"]; lv > 0 {
		r.Set("wv_over_lv_lte", r.Values["wv_lte_mean_s"]/lv)
	}
	r.Tables = []*metrics.Table{tbl}
	r.Plots = []string{metrics.PlotCDFs("Fig. 14 CDF: news feed updating time", "seconds", series, 60, 14)}
	return r
}

// RunFeedDesignBreakdown regenerates Fig. 15: device vs network share of
// the update time for both designs.
func RunFeedDesignBreakdown(seed int64, p Params) *Result {
	r := &Result{ID: "fig15", Title: "Feed update breakdown, WebView vs ListView (Fig. 15)"}
	tbl := &metrics.Table{
		Title:   "Fig. 15: update latency breakdown (mean seconds)",
		Headers: []string{"Condition", "Total", "Device", "Network"},
	}
	for i, c := range feedConds {
		cl, entries := feedRun(seed+int64(i), c.variant, c.prof(), feedHorizon)
		st := splitOver(cl, entries)
		tbl.AddRow(c.label, fmtS(st.total.Mean), fmtS(st.device.Mean), fmtS(st.network.Mean))
		r.Set(c.key+"_device_s", st.device.Mean)
		r.Set(c.key+"_network_s", st.network.Mean)
	}
	// Finding 5: ListView cuts device latency >=67% and network >=30%.
	if wv := r.Values["wv_lte_device_s"]; wv > 0 {
		r.Set("device_reduction_lte", 1-r.Values["lv_lte_device_s"]/wv)
	}
	if wv := r.Values["wv_lte_network_s"]; wv > 0 {
		r.Set("network_reduction_lte", 1-r.Values["lv_lte_network_s"]/wv)
	}
	r.Tables = []*metrics.Table{tbl}
	return r
}

// RunFeedDesignData regenerates Fig. 16: network data per feed update.
func RunFeedDesignData(seed int64, p Params) *Result {
	r := &Result{ID: "fig16", Title: "Feed update data consumption, WebView vs ListView (Fig. 16)"}
	tbl := &metrics.Table{
		Title:   "Fig. 16: per-update Facebook data (KB)",
		Headers: []string{"Condition", "Updates", "Uplink/update", "Downlink/update"},
	}
	for i, c := range feedConds {
		cl, entries := feedRun(seed+int64(i), c.variant, c.prof(), feedHorizon)
		ul, dl := cl.DataConsumption(serversim.FacebookHost)
		n := 0
		for _, e := range entries {
			if e.Observed {
				n++
			}
		}
		if n == 0 {
			continue
		}
		ulPer, dlPer := kb(ul)/float64(n), kb(dl)/float64(n)
		tbl.AddRow(c.label, fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f KB", ulPer), fmt.Sprintf("%.1f KB", dlPer))
		r.Set(c.key+"_ul_kb", ulPer)
		r.Set(c.key+"_dl_kb", dlPer)
	}
	if lv := r.Values["lv_lte_dl_kb"]; lv > 0 {
		r.Set("wv_dl_overhead_lte", r.Values["wv_lte_dl_kb"]/lv-1)
	}
	r.Tables = []*metrics.Table{tbl}
	return r
}
