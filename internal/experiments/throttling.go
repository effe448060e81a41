package experiments

import (
	"fmt"
	"time"

	"repro/internal/core/analyzer"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/radio"
)

// ThrottleRateBps is the §7.5 post-cap rate (the carrier throttles
// over-quota subscribers to ~128 kbps).
const ThrottleRateBps = 128e3

// videoPollInterval is the coarse controller polling cadence used for
// multi-minute playback follows (see EXPERIMENTS.md).
const videoPollInterval = 150 * time.Millisecond

// videoSample selects n pseudo-random video ids from the 260-entry catalog
// ("a0".."z9"), seeded like the paper's random-100 draw.
func videoSample(seed int64, n int) []string {
	// xorshift so the sample is independent of kernel RNG state.
	x := uint64(seed)*2654435761 + 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		id := fmt.Sprintf("%c%c", byte('a'+next()%26), byte('0'+next()%10))
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// watchOutcome is one video's UI-derived measurements.
type watchOutcome struct {
	initialS  float64
	rebuffer  float64
	completed bool
}

// throttleRun plays the given videos sequentially on one bed configuration
// and collects driver measurements.
func throttleRun(seed int64, prof *radio.Profile, throttleBps float64, ids []string) []watchOutcome {
	b := fleet.MustOneUE(seed, prof, fleet.UESpec{DisableQxDM: true, DisablePcap: true})
	b.YouTube.Connect()
	b.K.RunUntil(2 * time.Second)
	if throttleBps > 0 {
		b.Throttle(throttleBps)
	}
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.YouTube.Screen, log)
	c.Timeout = 60 * time.Minute
	c.Instrumentation().SetPollInterval(videoPollInterval)
	d := &controller.YouTubeDriver{C: c}

	out := make([]watchOutcome, 0, len(ids))
	var run func(i int)
	run = func(i int) {
		if i >= len(ids) {
			return
		}
		kw, idx := ids[i][:1], int(ids[i][1]-'0')
		err := d.SearchAndPlay(kw, idx, func(st controller.WatchStats) {
			o := watchOutcome{completed: st.InitialLoading.Observed}
			if st.InitialLoading.Observed {
				o.initialS = st.InitialLoading.RawLatency().Seconds()
				o.rebuffer = st.RebufferRatio()
			}
			out = append(out, o)
			b.K.After(3*time.Second, func() { run(i + 1) })
		})
		if err != nil {
			out = append(out, watchOutcome{})
			b.K.After(time.Second, func() { run(i + 1) })
		}
	}
	run(0)
	// Generous horizon: throttled playbacks stretch several-fold.
	b.K.RunUntil(b.K.Now() + time.Duration(len(ids))*30*time.Minute)
	return out
}

func collect(outs []watchOutcome) (init, rebuf []float64) {
	for _, o := range outs {
		if o.completed {
			init = append(init, o.initialS)
			rebuf = append(rebuf, o.rebuffer)
		}
	}
	return init, rebuf
}

// RunThrottleCDF regenerates Fig. 17: initial-loading-time and
// rebuffering-ratio distributions, throttled vs unthrottled, 3G vs LTE.
func RunThrottleCDF(seed int64, p Params) *Result {
	r := &Result{ID: "fig17", Title: "Throttling impact on video QoE (Fig. 17)"}
	const nVideos = 30 // scaled from the paper's 100 (see EXPERIMENTS.md)
	ids := videoSample(seed, nVideos)

	conds := []struct {
		key      string
		label    string
		prof     func() *radio.Profile
		throttle float64
	}{
		{"3g_free", "3G unthrottled", radio.Profile3G, 0},
		{"3g_capped", "3G throttled", radio.Profile3G, p.throttle(ThrottleRateBps)},
		{"lte_free", "LTE unthrottled", radio.ProfileLTE, 0},
		{"lte_capped", "LTE throttled", radio.ProfileLTE, p.throttle(ThrottleRateBps)},
	}
	initTbl := &metrics.Table{
		Title:   "Fig. 17 (bottom): initial loading time (s)",
		Headers: []string{"Condition", "N", "p25", "p50", "p75", "Mean", "Stddev"},
	}
	rebufTbl := &metrics.Table{
		Title:   "Fig. 17 (top): rebuffering ratio",
		Headers: []string{"Condition", "N", "p25", "p50", "p75", "Mean", "Stddev"},
	}
	initSeries := map[string][]float64{}
	rebufSeries := map[string][]float64{}
	for i, c := range conds {
		outs := throttleRun(seed+int64(i), c.prof(), c.throttle, ids)
		init, rebuf := collect(outs)
		initSeries[c.label] = init
		rebufSeries[c.label] = rebuf
		is, rs := metrics.Summarize(init), metrics.Summarize(rebuf)
		icdf, rcdf := metrics.NewCDF(init), metrics.NewCDF(rebuf)
		initTbl.AddRow(c.label, fmt.Sprintf("%d", len(init)),
			fmtS(icdf.Quantile(0.25)), fmtS(icdf.Quantile(0.5)), fmtS(icdf.Quantile(0.75)),
			fmtS(is.Mean), fmt.Sprintf("%.2f", is.Stddev))
		rebufTbl.AddRow(c.label, fmt.Sprintf("%d", len(rebuf)),
			fmt.Sprintf("%.3f", rcdf.Quantile(0.25)), fmt.Sprintf("%.3f", rcdf.Quantile(0.5)),
			fmt.Sprintf("%.3f", rcdf.Quantile(0.75)),
			fmt.Sprintf("%.3f", rs.Mean), fmt.Sprintf("%.3f", rs.Stddev))
		r.Set(c.key+"_init_mean_s", is.Mean)
		r.Set(c.key+"_init_stddev_s", is.Stddev)
		r.Set(c.key+"_rebuf_mean", rs.Mean)
		r.Set(c.key+"_rebuf_stddev", rs.Stddev)
		r.Set(c.key+"_n", float64(len(init)))
	}
	if free := r.Values["3g_free_init_mean_s"]; free > 0 {
		r.Set("init_multiplier_3g", r.Values["3g_capped_init_mean_s"]/free)
	}
	if free := r.Values["lte_free_init_mean_s"]; free > 0 {
		r.Set("init_multiplier_lte", r.Values["lte_capped_init_mean_s"]/free)
	}
	r.Tables = []*metrics.Table{rebufTbl, initTbl}
	r.Plots = []string{
		metrics.PlotCDFs("Fig. 17 CDF: rebuffering ratio", "ratio", rebufSeries, 60, 12),
		metrics.PlotCDFs("Fig. 17 CDF: initial loading time", "seconds", initSeries, 60, 12),
	}
	return r
}

// flowView is a compact per-flow summary for the Fig. 18 comparison.
type flowView struct {
	dlBytes         int
	retransmissions int
	throughput      []float64 // downlink bps per 10 s bin
	variance        float64
}

// analyzerFlows extracts flows and computes throughput series over the
// first 300 s of each flow: 10 s bins for display, 2 s bins for the
// variance statistic (policing burstiness averages out in coarse bins).
func analyzerFlows(sess *qoe.Session) []*flowView {
	rep := analyzer.ExtractFlows(sess.Packets, sess.DeviceAddr)
	var out []*flowView
	for _, f := range rep.Flows {
		fv := &flowView{
			dlBytes:         f.DLBytes,
			retransmissions: f.Retransmissions,
			throughput:      f.ThroughputSeries(10*time.Second, 300*time.Second),
		}
		fine := f.ThroughputSeries(2*time.Second, 250*time.Second)
		s := metrics.Summarize(fine)
		fv.variance = s.Stddev * s.Stddev
		out = append(out, fv)
	}
	return out
}

// RunShapeVsPolice regenerates Fig. 18: downlink throughput over time under
// 3G traffic shaping vs LTE traffic policing, plus the TCP retransmission
// counts that explain the difference (Finding 7).
func RunShapeVsPolice(seed int64, p Params) *Result {
	r := &Result{ID: "fig18", Title: "3G traffic shaping vs LTE traffic policing (Fig. 18)"}
	const horizon = 300 * time.Second

	run := func(prof *radio.Profile) ([]float64, int, float64) {
		b := fleet.MustOneUE(seed, prof, fleet.UESpec{DisableQxDM: true})
		b.YouTube.Connect()
		b.K.RunUntil(2 * time.Second)
		b.Throttle(p.throttle(ThrottleRateBps))
		log := &qoe.BehaviorLog{}
		c := controller.New(b.K, b.YouTube.Screen, log)
		c.Timeout = 30 * time.Minute
		c.Instrumentation().SetPollInterval(videoPollInterval)
		d := &controller.YouTubeDriver{C: c}
		// "y2" hashes to one of the longest catalog videos: its throttled
		// download spans the whole 300 s trace window.
		d.SearchAndPlay("y", 2, nil)
		b.K.RunUntil(b.K.Now() + horizon)

		// Transport-layer view: the biggest flow is the media stream.
		sess := b.Session(log)
		flows := analyzerFlows(sess)
		var media *flowView
		for _, f := range flows {
			if media == nil || f.dlBytes > media.dlBytes {
				media = f
			}
		}
		if media == nil {
			return nil, 0, 0
		}
		return media.throughput, media.retransmissions, media.variance
	}

	g3Series, g3Retx, g3Var := run(radio.Profile3G())
	lteSeries, lteRetx, lteVar := run(radio.ProfileLTE())

	tbl := &metrics.Table{
		Title:   "Fig. 18: downlink throughput, 10 s bins (kbps)",
		Headers: []string{"Bin", "3G shaping", "LTE policing"},
	}
	for i := 0; i < len(g3Series) && i < len(lteSeries); i++ {
		tbl.AddRow(fmt.Sprintf("%3d-%3ds", i*10, (i+1)*10),
			fmt.Sprintf("%.0f", g3Series[i]/1000), fmt.Sprintf("%.0f", lteSeries[i]/1000))
	}
	sum := &metrics.Table{
		Title:   "Fig. 18 summary",
		Headers: []string{"Mechanism", "TCP retransmissions", "Throughput variance (kbps^2)"},
	}
	sum.AddRow("3G traffic shaping", fmt.Sprintf("%d", g3Retx), fmt.Sprintf("%.0f", g3Var/1e6))
	sum.AddRow("LTE traffic policing", fmt.Sprintf("%d", lteRetx), fmt.Sprintf("%.0f", lteVar/1e6))
	r.Set("3g_retransmissions", float64(g3Retx))
	r.Set("lte_retransmissions", float64(lteRetx))
	r.Set("3g_throughput_var", g3Var)
	r.Set("lte_throughput_var", lteVar)
	r.Tables = []*metrics.Table{tbl, sum}
	return r
}

// RunRebufferVsRate regenerates Fig. 19: rebuffering ratio vs throttled
// bandwidth (100-500 kbps), 3G shaping vs LTE policing.
func RunRebufferVsRate(seed int64, p Params) *Result {
	return rateSweep(seed, p, "fig19", "Rebuffering ratio vs throttled bandwidth (Fig. 19)", true)
}

// RunInitLoadVsRate regenerates Fig. 20: initial loading time vs throttled
// bandwidth.
func RunInitLoadVsRate(seed int64, p Params) *Result {
	return rateSweep(seed, p, "fig20", "Initial loading time vs throttled bandwidth (Fig. 20)", false)
}

func rateSweep(seed int64, p Params, id, title string, rebuf bool) *Result {
	r := &Result{ID: id, Title: title}
	const nVideos = 8
	ids := videoSample(seed, nVideos)
	rates := []float64{100e3, 200e3, 300e3, 400e3, 500e3}
	if p.ThrottleBps > 0 {
		rates = []float64{p.ThrottleBps}
	}

	hdr := []string{"Throttle rate", "3G shaping", "LTE policing"}
	tbl := &metrics.Table{Title: title, Headers: hdr}
	for _, rate := range rates {
		row := []string{fmt.Sprintf("%.0f kbps", rate/1000)}
		for pi, mk := range []func() *radio.Profile{radio.Profile3G, radio.ProfileLTE} {
			outs := throttleRun(seed+int64(rate/1000)+int64(pi*7), mk(), rate, ids)
			init, rb := collect(outs)
			var v float64
			if rebuf {
				v = metrics.Summarize(rb).Mean
				row = append(row, fmt.Sprintf("%.3f", v))
			} else {
				v = metrics.Summarize(init).Mean
				row = append(row, fmtS(v))
			}
			key := fmt.Sprintf("%s_%.0fk", []string{"3g", "lte"}[pi], rate/1000)
			r.Set(key, v)
		}
		tbl.AddRow(row...)
	}
	r.Tables = []*metrics.Table{tbl}
	return r
}
