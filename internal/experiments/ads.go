package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps/youtube"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/radio"
)

// adOutcome captures one playback's loading decomposition. The app-level
// PlaybackStats stand in for the paper's ad-aware UI parsing, which
// measures the ad and the main video separately (§4.2.2).
type adOutcome struct {
	adLoadS    float64
	mainLoadS  float64
	totalLoadS float64
	adPlayed   bool
}

// adsRun plays videos that carry a pre-roll ad, with ads enabled or not.
// The app preloads the main video during the ad only on WiFi (unmetered).
func adsRun(seed int64, prof *radio.Profile, adsEnabled bool, ids []string) []adOutcome {
	b := fleet.MustOneUE(seed, prof, fleet.UESpec{
		YouTube: youtube.Config{
			AdsEnabled:      adsEnabled,
			PreloadDuringAd: prof.Tech == radio.TechWiFi,
		},
		DisableQxDM: true, DisablePcap: true,
	})
	b.YouTube.Connect()
	b.K.RunUntil(2 * time.Second)

	var out []adOutcome
	var run func(i int)
	run = func(i int) {
		if i >= len(ids) {
			return
		}
		v, err := b.Servers.YouTube.Video(ids[i])
		if err != nil {
			run(i + 1)
			return
		}
		b.YouTube.OnPlaybackDone(func(st youtube.PlaybackStats) {
			// "Total loading" is the user's cumulative spinner time: the
			// ad's loading plus the main video's loading (watching the ad
			// itself is not loading).
			out = append(out, adOutcome{
				adLoadS:    st.AdLoading.Seconds(),
				mainLoadS:  st.MainLoading.Seconds(),
				totalLoadS: st.AdLoading.Seconds() + st.MainLoading.Seconds(),
				adPlayed:   st.AdPlayed,
			})
			// Idle long enough for the LTE tail (~11.6 s) to expire, so
			// every video starts from a cold radio like a fresh session.
			b.K.After(15*time.Second, func() { run(i + 1) })
		})
		b.YouTube.PlayVideo(v)
	}
	run(0)
	b.K.RunUntil(b.K.Now() + time.Duration(len(ids))*15*time.Minute)
	return out
}

// RunAdsImpact regenerates the §7.6 study: ads reduce the main video's own
// loading time (it preloads during the ad) but increase the total loading
// time, roughly doubling it on cellular.
func RunAdsImpact(seed int64, p Params) *Result {
	r := &Result{ID: "sec7.6", Title: "Impact of video ads on loading time (§7.6)"}
	// Catalog videos with digit divisible by 3 carry a pre-roll ad.
	ids := []string{"a0", "c3", "f6", "h9", "k0", "m3", "p6", "s9", "v0", "x3"}

	tbl := &metrics.Table{
		Title:   "§7.6: loading time with and without pre-roll ads (mean s)",
		Headers: []string{"Network", "Ads", "Ad loading", "Main-video loading", "Total spinner time"},
	}
	for pi, mk := range []func() *radio.Profile{radio.ProfileLTE, radio.ProfileWiFi} {
		name := []string{"C1 LTE", "WiFi"}[pi]
		keyNet := []string{"lte", "wifi"}[pi]
		for _, ads := range []bool{false, true} {
			outs := adsRun(seed+int64(pi*2), mk(), ads, ids)
			var adL, mainL, totL []float64
			for _, o := range outs {
				if ads && !o.adPlayed {
					continue
				}
				adL = append(adL, o.adLoadS)
				mainL = append(mainL, o.mainLoadS)
				totL = append(totL, o.totalLoadS)
			}
			am, mm, tm := metrics.Summarize(adL).Mean, metrics.Summarize(mainL).Mean, metrics.Summarize(totL).Mean
			label := "off"
			if ads {
				label = "on"
			}
			tbl.AddRow(name, label, fmtS(am), fmtS(mm), fmtS(tm))
			key := fmt.Sprintf("%s_ads_%s", keyNet, label)
			r.Set(key+"_main_s", mm)
			r.Set(key+"_total_s", tm)
		}
	}
	// Headline ratios on cellular.
	if off := r.Values["lte_ads_off_total_s"]; off > 0 {
		r.Set("lte_total_ratio_with_ads", r.Values["lte_ads_on_total_s"]/off)
	}
	if off := r.Values["lte_ads_off_main_s"]; off > 0 {
		r.Set("lte_main_ratio_with_ads", r.Values["lte_ads_on_main_s"]/off)
	}
	r.Tables = []*metrics.Table{tbl}
	return r
}
