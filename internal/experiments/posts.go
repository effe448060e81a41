package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps/facebook"
	"repro/internal/core/analyzer"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/testbed"
)

// postRun drives reps post uploads of one kind on one network, posting
// every 2 seconds like the §7.2 setup, and returns the session plus the
// logged entries.
func postRun(seed int64, prof *radio.Profile, kind string, reps int) (*analyzer.CrossLayer, []qoe.BehaviorEntry) {
	b := testbed.MustNew(testbed.Options{Seed: seed, Profile: prof})
	b.Facebook.Connect()
	b.K.RunUntil(3 * time.Second)
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.Facebook.Screen, log)
	d := controller.NewFacebookDriver(c, false)

	var run func(i int)
	run = func(i int) {
		if i >= reps {
			return
		}
		d.UploadPost(kind, i, func(qoe.BehaviorEntry) {
			b.K.After(2*time.Second, func() { run(i + 1) })
		})
	}
	run(0)
	b.K.RunUntil(b.K.Now() + time.Duration(reps)*time.Minute)
	cl := analyzer.NewCrossLayer(b.Session(log))
	return cl, log.ByAction("upload_post_" + kind)
}

// splitStats averages device/network splits over entries.
type splitStats struct {
	total, device, network metrics.Summary
	netShare               float64
}

func splitOver(cl *analyzer.CrossLayer, entries []qoe.BehaviorEntry) splitStats {
	var tot, dev, net []float64
	for _, e := range entries {
		if !e.Observed {
			continue
		}
		s := cl.SplitDeviceNetwork(analyzer.Calibrate(e))
		tot = append(tot, s.UserPerceived.Seconds())
		dev = append(dev, s.Device.Seconds())
		net = append(net, s.Network.Seconds())
	}
	st := splitStats{
		total:   metrics.Summarize(tot),
		device:  metrics.Summarize(dev),
		network: metrics.Summarize(net),
	}
	if st.total.Mean > 0 {
		st.netShare = st.network.Mean / st.total.Mean
	}
	return st
}

// RunPostBreakdown regenerates Fig. 7: device vs network delay for posting
// 2 photos, a check-in, and a status, on C1 3G and C1 LTE.
func RunPostBreakdown(seed int64, p Params) *Result {
	r := &Result{ID: "fig7", Title: "Device and network delay breakdown for post uploads (Fig. 7)"}
	const reps = 20

	tbl := &metrics.Table{
		Title:   "Fig. 7: post upload latency breakdown (mean over 20 reps)",
		Headers: []string{"Network", "Action", "Total", "Device", "Network", "Net share", "Stddev"},
	}
	kinds := []string{facebook.PostPhotos, facebook.PostCheckin, facebook.PostStatus}
	profs := []func() *radio.Profile{radio.Profile3G, radio.ProfileLTE}
	names := []string{"C1 3G", "C1 LTE"}
	for pi, mk := range profs {
		for ki, kind := range kinds {
			cl, entries := postRun(seed+int64(pi*10+ki), mk(), kind, reps)
			st := splitOver(cl, entries)
			tbl.AddRow(names[pi], kind, fmtS(st.total.Mean), fmtS(st.device.Mean),
				fmtS(st.network.Mean), fmtPct(st.netShare),
				fmt.Sprintf("%.2f s", st.total.Stddev))
			key := fmt.Sprintf("%s_%s", map[int]string{0: "3g", 1: "lte"}[pi], kind)
			r.Set(key+"_total_s", st.total.Mean)
			r.Set(key+"_device_s", st.device.Mean)
			r.Set(key+"_network_s", st.network.Mean)
			r.Set(key+"_netshare", st.netShare)
			r.Set(key+"_stddev_s", st.total.Stddev)
		}
	}
	r.Tables = []*metrics.Table{tbl}
	return r
}

// RunRLCBreakdown regenerates Fig. 8/9: the fine-grained network latency
// breakdown for the 2-photo upload, comparing 3G and LTE RLC behaviour.
func RunRLCBreakdown(seed int64, p Params) *Result {
	r := &Result{ID: "fig8", Title: "Fine-grained network latency breakdown, 2-photo upload (Fig. 8/9)"}
	const reps = 10

	tbl := &metrics.Table{
		Title:   "Fig. 8: per-component network latency (mean per upload)",
		Headers: []string{"Network", "IP-to-RLC", "RLC transmission", "First-hop OTA", "Other", "PDUs/upload"},
	}
	type agg struct {
		ipToRLC, rlcTx, ota, other float64
		pdus                       float64
		n                          int
	}
	results := map[string]agg{}
	for pi, mk := range []func() *radio.Profile{radio.Profile3G, radio.ProfileLTE} {
		name := []string{"C1 3G", "C1 LTE"}[pi]
		cl, entries := postRun(seed+int64(pi), mk(), facebook.PostPhotos, reps)
		var a agg
		for _, e := range entries {
			if !e.Observed {
				continue
			}
			// Break down the network portion of the QoE window: the span of
			// the responsible flow's packets.
			s := cl.SplitDeviceNetwork(analyzer.Calibrate(e))
			if s.Flow == nil {
				continue
			}
			first, last, n := s.Flow.WindowSpan(e.Start, e.End)
			if n < 2 {
				continue
			}
			bd := cl.BreakdownWindow(first, last)
			a.ipToRLC += bd.IPToRLC.Seconds()
			a.rlcTx += bd.RLCTransmission.Seconds()
			a.ota += bd.FirstHopOTA.Seconds()
			a.other += bd.Other.Seconds()
			a.pdus += float64(bd.PDUCount)
			a.n++
		}
		if a.n > 0 {
			f := float64(a.n)
			a.ipToRLC, a.rlcTx, a.ota, a.other, a.pdus = a.ipToRLC/f, a.rlcTx/f, a.ota/f, a.other/f, a.pdus/f
		}
		results[name] = a
		tbl.AddRow(name, fmtS(a.ipToRLC), fmtS(a.rlcTx), fmtS(a.ota), fmtS(a.other),
			fmt.Sprintf("%.0f", a.pdus))
		key := []string{"3g", "lte"}[pi]
		r.Set(key+"_ip_to_rlc_s", a.ipToRLC)
		r.Set(key+"_rlc_tx_s", a.rlcTx)
		r.Set(key+"_ota_s", a.ota)
		r.Set(key+"_other_s", a.other)
		r.Set(key+"_pdus", a.pdus)
	}
	if lte := results["C1 LTE"]; lte.pdus > 0 {
		r.Set("pdu_ratio_3g_over_lte", results["C1 3G"].pdus/lte.pdus)
	}
	if lte := results["C1 LTE"]; lte.rlcTx > 0 {
		r.Set("rlc_tx_ratio_3g_over_lte", results["C1 3G"].rlcTx/lte.rlcTx)
	}
	r.Tables = []*metrics.Table{tbl}
	return r
}
