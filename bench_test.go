// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (§7): one benchmark per artifact, each running the
// corresponding experiment end-to-end on the simulated testbed and
// reporting the headline values as benchmark metrics. Run with
//
//	go test -bench=. -benchmem
//
// Wall-clock cost is dominated by virtual-time simulation; the figures'
// key values appear as custom metrics (paper-vs-measured is recorded in
// EXPERIMENTS.md). Ablation benchmarks at the bottom quantify the design
// choices called out in DESIGN.md §4.
package repro

import (
	"testing"
	"time"

	"repro/internal/apps/facebook"
	"repro/internal/core/analyzer"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/qxdm"
	"repro/internal/radio"
	"repro/internal/simtime"
	"repro/internal/uisim"
)

const benchSeed = 42

// runExperiment executes a registered experiment b.N times and reports the
// selected key values as benchmark metrics.
func runExperiment(b *testing.B, id string, metricKeys ...string) {
	b.Helper()
	exp, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		last = exp.Run(benchSeed, experiments.Params{})
	}
	for _, k := range metricKeys {
		v, ok := last.Values[k]
		if !ok {
			b.Fatalf("experiment %s did not produce key %q", id, k)
		}
		b.ReportMetric(v, k)
	}
}

// --- §7.1: Table 3 and Fig. 6 ---

func BenchmarkTable3Accuracy(b *testing.B) {
	runExperiment(b, "table3", "latency_err_ms", "mapping_ul", "mapping_dl", "cpu_overhead")
}

func BenchmarkFig6ErrorRatio(b *testing.B) {
	runExperiment(b, "table3", "post_ratio", "pull_ratio", "yt_init_ratio", "yt_rebuf_ratio", "web_ratio")
}

// --- §7.2: Fig. 7, 8/9 ---

func BenchmarkFig7PostBreakdown(b *testing.B) {
	runExperiment(b, "fig7",
		"3g_photos_netshare", "lte_photos_netshare",
		"3g_status_netshare", "3g_photos_network_s", "lte_photos_network_s")
}

func BenchmarkFig8RLCBreakdown(b *testing.B) {
	runExperiment(b, "fig8",
		"pdu_ratio_3g_over_lte", "rlc_tx_ratio_3g_over_lte", "3g_rlc_tx_s", "lte_rlc_tx_s")
}

// --- §7.3: Fig. 10-13 ---

func BenchmarkFig10BackgroundData(b *testing.B) {
	runExperiment(b, "fig10", "freq_0_total_kb", "freq_3_total_kb", "none_daily_kb")
}

func BenchmarkFig11BackgroundEnergy(b *testing.B) {
	runExperiment(b, "fig11", "freq_0_total_j", "freq_3_total_j", "none_daily_j")
}

func BenchmarkFig12RefreshData(b *testing.B) {
	runExperiment(b, "fig12", "saving_2h_vs_1h", "ratio_2h_vs_4h")
}

func BenchmarkFig13RefreshEnergy(b *testing.B) {
	runExperiment(b, "fig13", "saving_2h_vs_1h")
}

// --- §7.4: Fig. 14-16 ---

func BenchmarkFig14UpdateCDF(b *testing.B) {
	runExperiment(b, "fig14", "wv_over_lv_lte", "lv_lte_stddev_s", "wv_lte_stddev_s")
}

func BenchmarkFig15UpdateBreakdown(b *testing.B) {
	runExperiment(b, "fig15", "device_reduction_lte", "network_reduction_lte")
}

func BenchmarkFig16UpdateData(b *testing.B) {
	runExperiment(b, "fig16", "wv_dl_overhead_lte")
}

// --- §7.5: Fig. 17-20 ---

func BenchmarkFig17ThrottleCDF(b *testing.B) {
	runExperiment(b, "fig17",
		"init_multiplier_3g", "init_multiplier_lte",
		"3g_capped_rebuf_mean", "lte_capped_rebuf_mean")
}

func BenchmarkFig18ShapeVsPolice(b *testing.B) {
	runExperiment(b, "fig18",
		"3g_retransmissions", "lte_retransmissions",
		"3g_throughput_var", "lte_throughput_var")
}

func BenchmarkFig19RebufferVsRate(b *testing.B) {
	runExperiment(b, "fig19", "3g_100k", "lte_100k", "3g_500k", "lte_500k")
}

func BenchmarkFig20InitLoadVsRate(b *testing.B) {
	runExperiment(b, "fig20", "3g_100k", "lte_100k", "3g_500k", "lte_500k")
}

// --- §7.6, §7.7 ---

func BenchmarkSec76AdsImpact(b *testing.B) {
	runExperiment(b, "sec7.6", "lte_total_ratio_with_ads")
}

func BenchmarkSec77RRCSimplify(b *testing.B) {
	runExperiment(b, "sec7.7", "reduction", "default3g_mean_s", "simplified3g_mean_s")
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationCalibration quantifies the §5.1 measurement calibration
// on a deliberately heavy layout tree (~1000 views, parse time ~60 ms —
// think a fully loaded news feed): the uncalibrated polling measurement
// blows through the paper's 40 ms error bound, the calibrated one does not.
func BenchmarkAblationCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bed := fleet.MustOneUE(benchSeed, radio.ProfileLTE(), fleet.UESpec{DisableQxDM: true})
		bed.Facebook.Connect()
		bed.K.RunUntil(2 * time.Second)
		// Inflate the tree so one parse pass costs ~60 ms.
		filler := uisim.NewView(uisim.ClassView, "filler", "deep feed")
		for j := 0; j < 1000; j++ {
			filler.AddChild(uisim.NewView(uisim.ClassTextView, "story", ""))
		}
		bed.Facebook.Screen.Root().AddChild(filler)
		log := &qoe.BehaviorLog{}
		c := controller.New(bed.K, bed.Facebook.Screen, log)
		d := controller.NewFacebookDriver(c, false)

		const reps = 10
		entries := make([]qoe.BehaviorEntry, reps)
		screenAts := make([]simtime.Time, reps)
		for j := range screenAts {
			screenAts[j] = -1
		}
		var run func(i int)
		run = func(i int) {
			if i >= reps {
				return
			}
			stamp, err := d.UploadPost(facebook.PostStatus, i, func(e qoe.BehaviorEntry) {
				entries[i] = e
				bed.K.After(2*time.Second, func() { run(i + 1) })
			})
			if err != nil {
				return
			}
			bed.Facebook.Screen.WatchScreen(func(r *uisim.View) bool {
				for _, v := range r.FindAll(uisim.Signature{ID: facebook.IDFeedItem}) {
					if v.Shown() && contains(v.Text(), stamp) {
						return true
					}
				}
				return false
			}, func(at simtime.Time) { screenAts[i] = at })
		}
		run(0)
		bed.K.RunUntil(bed.K.Now() + 3*time.Minute)

		var rawErr, calErr, n float64
		for j := 0; j < reps; j++ {
			if !entries[j].Observed || screenAts[j] < 0 {
				continue
			}
			truth := time.Duration(screenAts[j] - entries[j].Start).Seconds()
			rawErr += abs(entries[j].RawLatency().Seconds() - truth)
			calErr += abs(analyzer.Calibrate(entries[j]).Calibrated.Seconds() - truth)
			n++
		}
		if n > 0 {
			b.ReportMetric(rawErr/n*1000, "raw_err_ms")
			b.ReportMetric(calErr/n*1000, "calibrated_err_ms")
		}
	}
}

// BenchmarkAblationMappingAnchor splits the long-jump mapping ratio into
// its two mechanisms: packets mapped by simple cursor continuity versus
// packets that needed the time-anchored resync. The gap between the
// anchored ratio and the cursor-only ratio is how much mapping the resync
// recovers after QxDM capture loss.
func BenchmarkAblationMappingAnchor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Build one 3G photo-upload session.
		bed := fleet.MustOneUE(benchSeed, radio.Profile3G(), fleet.UESpec{})
		bed.Facebook.Connect()
		bed.K.RunUntil(3 * time.Second)
		log := &qoe.BehaviorLog{}
		c := controller.New(bed.K, bed.Facebook.Screen, log)
		d := controller.NewFacebookDriver(c, false)
		d.UploadPost(facebook.PostPhotos, 0, nil)
		bed.K.RunUntil(bed.K.Now() + 3*time.Minute)
		cl := analyzer.NewCrossLayer(bed.Session(log))
		b.ReportMetric(cl.ULMap.Ratio(), "anchored_ul_ratio")

		// Diagnosis pass: "ok" counts natural-cursor hits, "resync" the
		// packets only the anchored search could place.
		var ul []analyzer.MappedPacket
		for _, rec := range bed.Capture.Records() {
			p, err := rec.Packet()
			if err == nil && p.Src.Addr == fleet.BaseAddr {
				ul = append(ul, analyzer.MappedPacket{At: rec.At, Data: rec.Data})
			}
		}
		var ulPDUs []qxdm.PDURecord
		for _, p := range bed.QxDM.Log().PDUs {
			if p.Dir == radio.Uplink {
				ulPDUs = append(ulPDUs, p)
			}
		}
		reasons := analyzer.DiagnoseMap(ul, ulPDUs)
		total := 0
		for _, v := range reasons {
			total += v
		}
		if total > 0 {
			b.ReportMetric(float64(reasons["ok"])/float64(total), "cursor_only_ul_ratio")
			b.ReportMetric(float64(reasons["resync"])/float64(total), "resync_ul_ratio")
		}
	}
}

// BenchmarkAblationPollInterval quantifies the polling-cadence tradeoff:
// parse CPU vs measurement resolution for a fixed wait.
func BenchmarkAblationPollInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, interval := range []time.Duration{0, 50 * time.Millisecond, 200 * time.Millisecond} {
			k := simtime.NewKernel(benchSeed)
			root := uisim.NewView(uisim.ClassView, "root", "")
			s := uisim.NewScreen(k, root)
			bar := uisim.NewView(uisim.ClassProgressBar, "bar", "")
			root.AddChild(bar)
			in := uisim.NewInstrumentation(k, s)
			in.SetPollInterval(interval)
			k.After(1500*time.Millisecond, func() { bar.SetVisible(false) })
			var res uisim.WaitResult
			in.WaitUntil(func(sn *uisim.Snapshot) bool {
				return !sn.VisibleMatch(uisim.Signature{ID: "bar"})
			}, 10*time.Second, func(r uisim.WaitResult) { res = r })
			k.Run()
			_ = res
			switch interval {
			case 0:
				b.ReportMetric(in.ParseCPU().Seconds()*1000, "continuous_cpu_ms")
			case 200 * time.Millisecond:
				b.ReportMetric(in.ParseCPU().Seconds()*1000, "coarse_cpu_ms")
			}
		}
	}
}

// BenchmarkRLCSegmentation measures raw substrate throughput: PDU
// segmentation and ARQ for a 1 MB uplink transfer on 3G (micro-benchmark
// for the radio engine itself).
func BenchmarkRLCSegmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := simtime.NewKernel(benchSeed)
		prof := radio.Profile3G()
		bearer := radio.NewBearer(k, prof)
		for j := 0; j < 700; j++ { // ~1MB in 1400B packets
			bearer.SendUplink(make([]byte, 1400), nil, nil)
		}
		k.Run()
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
