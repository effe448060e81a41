package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps/serversim"
	"repro/internal/core/analyzer"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/radio"
)

// pageThinkTime separates page loads so the RRC machine demotes between
// them — the regime where promotion overhead hits page-load latency.
const pageThinkTime = 20 * time.Second

// pagesRun loads a URL list with think time and returns the calibrated
// page-load times plus the count of RRC promotions that overlapped QoE
// windows (the §5.4.2 cross-layer diagnosis).
func pagesRun(seed int64, prof *radio.Profile, nPages int) (loads []float64, promotionsInWindows int) {
	b := fleet.MustOneUE(seed, prof, fleet.UESpec{})
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.Browser.Screen, log)
	c.Timeout = 5 * time.Minute
	d := &controller.BrowserDriver{C: c}

	urls := make([]string, nPages)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/site-%d", serversim.WebHostBase, i)
	}
	var entries []qoe.BehaviorEntry
	d.LoadPages(urls, pageThinkTime, func(es []qoe.BehaviorEntry) { entries = es })
	b.K.RunUntil(time.Duration(nPages) * 2 * time.Minute)

	sess := b.Session(log)
	for _, e := range entries {
		if !e.Observed {
			continue
		}
		loads = append(loads, analyzer.Calibrate(e).Calibrated.Seconds())
		for _, tr := range analyzer.TransitionsIn(sess.Radio, e.Start, e.End) {
			if tr.Promotion {
				promotionsInWindows++
			}
		}
	}
	return loads, promotionsInWindows
}

// RunRRCSimplify regenerates the §7.7 study: replacing the 3-state 3G RRC
// machine (PCH/FACH/DCH) with a simplified direct-promotion design cuts web
// page loading time (the paper measures 22.8%).
func RunRRCSimplify(seed int64, p Params) *Result {
	r := &Result{ID: "sec7.7", Title: "RRC state machine design vs page load time (§7.7)"}
	const nPages = 12

	tbl := &metrics.Table{
		Title:   "§7.7: page load time under different RRC machines",
		Headers: []string{"RRC machine", "Mean load", "p50", "Promotions in QoE windows"},
	}
	type cond struct {
		key   string
		label string
		prof  func() *radio.Profile
	}
	for _, c := range []cond{
		{"default3g", "Default 3G (PCH/FACH/DCH)", radio.Profile3G},
		{"simplified3g", "Simplified 3G (direct PCH->DCH)", radio.ProfileSimplified3G},
		{"lte", "LTE (reference)", radio.ProfileLTE},
	} {
		loads, promos := pagesRun(seed, c.prof(), nPages)
		s := metrics.Summarize(loads)
		cdf := metrics.NewCDF(loads)
		tbl.AddRow(c.label, fmtS(s.Mean), fmtS(cdf.Quantile(0.5)), fmt.Sprintf("%d", promos))
		r.Set(c.key+"_mean_s", s.Mean)
		r.Set(c.key+"_promotions", float64(promos))
	}
	if def := r.Values["default3g_mean_s"]; def > 0 {
		r.Set("reduction", 1-r.Values["simplified3g_mean_s"]/def)
	}
	r.Tables = []*metrics.Table{tbl}
	return r
}
