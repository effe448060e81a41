package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps/facebook"
	"repro/internal/apps/serversim"
	"repro/internal/core/analyzer"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/radio"
	"repro/internal/testbed"
)

// FriendPostBytes is the content size of a simulated friend post (device A
// of §7.3); the subscriber fetches it on notification.
const FriendPostBytes = 4_000

// bgOutcome is one 16-hour background run's measurements.
type bgOutcome struct {
	ulKB, dlKB float64
	totalJ     float64
	tailJ      float64
	nonTailJ   float64
}

// backgroundRun reproduces the §7.3 testbed: the app sits in the background
// for 16 hours with a push subscription; a friend posts every postEvery
// (zero = never); the app refreshes recommendations every refreshInterval.
func backgroundRun(seed int64, postEvery, refreshInterval time.Duration) bgOutcome {
	cfg := facebook.Config{
		Variant:            serversim.VariantListView,
		RefreshInterval:    refreshInterval,
		SelfUpdateOnNotify: false, // backgrounded: no foreground feed refresh
		Subscribe:          true,
	}
	b := testbed.MustNew(testbed.Options{Seed: seed, Profile: radio.ProfileLTE(), Facebook: cfg})
	b.Facebook.Connect()
	b.K.RunUntil(5 * time.Second)

	if postEvery > 0 {
		// Offset the friend's posting phase from the device's refresh
		// ticks; two independent devices do not fire in lockstep, and
		// aligned events would share radio tail energy.
		b.K.RunUntil(13 * time.Minute)
		n := 0
		b.K.Ticker(postEvery, func() {
			n++
			b.Servers.Facebook.InjectFriendPost(fmt.Sprintf("friend-%d", n), FriendPostBytes)
		})
	}
	const horizon = 16 * time.Hour
	b.K.RunUntil(horizon)

	sess := b.Session(nil)
	flows := analyzer.ExtractFlows(sess.Packets, sess.DeviceAddr)
	ul, dl := flows.HostBytes(serversim.FacebookHost)
	rep := power.Analyze(sess.Profile, sess.Radio, 0, horizon)
	// Report the paper's "network energy": the active radio energy above
	// the idle floor.
	return bgOutcome{
		ulKB: kb(ul), dlKB: kb(dl),
		totalJ: rep.ActiveJ(), tailJ: rep.TailJ, nonTailJ: rep.NonTailJ,
	}
}

var postFreqCases = []struct {
	label string
	every time.Duration
}{
	{"10 min", 10 * time.Minute},
	{"30 min", 30 * time.Minute},
	{"1 hr", time.Hour},
	{"None", 0},
}

// RunBackgroundData regenerates Fig. 10: per-flow mobile data consumption
// by friend post-upload frequency (16 h, default 1-hour refresh interval).
func RunBackgroundData(seed int64, p Params) *Result {
	r := &Result{ID: "fig10", Title: "Background data consumption by post upload frequency (Fig. 10)"}
	tbl := &metrics.Table{
		Title:   "Fig. 10: Facebook background data over 16 h (uplink/downlink)",
		Headers: []string{"Post frequency", "Uplink", "Downlink", "Total"},
	}
	for i, c := range postFreqCases {
		o := backgroundRun(seed+int64(i), c.every, time.Hour)
		tbl.AddRow(c.label, fmtKB(o.ulKB), fmtKB(o.dlKB), fmtKB(o.ulKB+o.dlKB))
		key := fmt.Sprintf("freq_%d", i)
		r.Set(key+"_ul_kb", o.ulKB)
		r.Set(key+"_dl_kb", o.dlKB)
		r.Set(key+"_total_kb", o.ulKB+o.dlKB)
	}
	// The Finding-3 headline: daily floor with zero friend activity.
	none := r.Values["freq_3_total_kb"]
	r.Set("none_daily_kb", none*24/16)
	r.Tables = []*metrics.Table{tbl}
	return r
}

// RunBackgroundEnergy regenerates Fig. 11: estimated network energy by post
// upload frequency, split into tail and non-tail.
func RunBackgroundEnergy(seed int64, p Params) *Result {
	r := &Result{ID: "fig11", Title: "Background energy consumption by post upload frequency (Fig. 11)"}
	tbl := &metrics.Table{
		Title:   "Fig. 11: estimated radio energy over 16 h",
		Headers: []string{"Post frequency", "Non-tail", "Tail", "Total"},
	}
	for i, c := range postFreqCases {
		o := backgroundRun(seed+int64(i), c.every, time.Hour)
		tbl.AddRow(c.label, fmtJ(o.nonTailJ), fmtJ(o.tailJ), fmtJ(o.totalJ))
		key := fmt.Sprintf("freq_%d", i)
		r.Set(key+"_total_j", o.totalJ)
		r.Set(key+"_tail_j", o.tailJ)
		r.Set(key+"_nontail_j", o.nonTailJ)
	}
	none := r.Values["freq_3_total_j"]
	r.Set("none_daily_j", none*24/16)
	r.Tables = []*metrics.Table{tbl}
	return r
}

var refreshCases = []struct {
	label    string
	interval time.Duration
}{
	{"30 min", 30 * time.Minute},
	{"1 hr", time.Hour},
	{"2 hr", 2 * time.Hour},
	{"4 hr", 4 * time.Hour},
}

// RunRefreshData regenerates Fig. 12: data consumption by refresh-interval
// configuration, with a friend posting every 30 minutes.
func RunRefreshData(seed int64, p Params) *Result {
	r := &Result{ID: "fig12", Title: "Data consumption by refresh interval (Fig. 12)"}
	tbl := &metrics.Table{
		Title:   "Fig. 12: Facebook background data over 16 h (friend posts every 30 min)",
		Headers: []string{"Refresh interval", "Uplink", "Downlink", "Total"},
	}
	totals := map[string]float64{}
	for i, c := range refreshCases {
		o := backgroundRun(seed+int64(i), 30*time.Minute, c.interval)
		tbl.AddRow(c.label, fmtKB(o.ulKB), fmtKB(o.dlKB), fmtKB(o.ulKB+o.dlKB))
		totals[c.label] = o.ulKB + o.dlKB
		r.Set(fmt.Sprintf("refresh_%d_total_kb", i), o.ulKB+o.dlKB)
	}
	// Finding 4: 2 h vs the default 1 h saves >=20% data; 2 h ~ 4 h.
	if totals["1 hr"] > 0 {
		r.Set("saving_2h_vs_1h", (totals["1 hr"]-totals["2 hr"])/totals["1 hr"])
	}
	if totals["4 hr"] > 0 {
		r.Set("ratio_2h_vs_4h", totals["2 hr"]/totals["4 hr"])
	}
	r.Tables = []*metrics.Table{tbl}
	return r
}

// RunRefreshEnergy regenerates Fig. 13: energy by refresh interval.
func RunRefreshEnergy(seed int64, p Params) *Result {
	r := &Result{ID: "fig13", Title: "Energy consumption by refresh interval (Fig. 13)"}
	tbl := &metrics.Table{
		Title:   "Fig. 13: estimated radio energy over 16 h (friend posts every 30 min)",
		Headers: []string{"Refresh interval", "Non-tail", "Tail", "Total"},
	}
	totals := map[string]float64{}
	for i, c := range refreshCases {
		o := backgroundRun(seed+int64(i), 30*time.Minute, c.interval)
		tbl.AddRow(c.label, fmtJ(o.nonTailJ), fmtJ(o.tailJ), fmtJ(o.totalJ))
		totals[c.label] = o.totalJ
		r.Set(fmt.Sprintf("refresh_%d_total_j", i), o.totalJ)
	}
	if totals["1 hr"] > 0 {
		r.Set("saving_2h_vs_1h", (totals["1 hr"]-totals["2 hr"])/totals["1 hr"])
	}
	r.Tables = []*metrics.Table{tbl}
	return r
}
