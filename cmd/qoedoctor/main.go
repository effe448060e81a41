// Command qoedoctor runs one QoE measurement scenario end-to-end on the
// simulated testbed — the equivalent of deploying the paper's tool against
// a phone: the QoE-aware UI controller replays a user behaviour while
// tcpdump and QxDM log below it, then the multi-layer analyzer prints the
// per-layer report.
//
// Usage:
//
//	qoedoctor -scenario facebook-post   [-network lte|3g|3g-simple|wifi]
//	qoedoctor -scenario facebook-update
//	qoedoctor -scenario youtube         [-throttle 128000]
//	qoedoctor -scenario browse
//	qoedoctor -pcap trace.pcap -qxdm radio.json   # save raw logs
//	qoedoctor -trace run.json -report             # cross-layer trace + metrics
//
// -trace writes the run's cross-layer span trace as Chrome trace_event JSON
// (open in chrome://tracing or Perfetto, one track per layer); -trace-csv
// writes the same events as CSV. -report prints the metrics registry
// snapshot as a table, -report-json writes it as NDJSON. -profile prints
// wall-clock time per kernel callback site (simulation hot paths; the one
// non-deterministic output).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/apps/facebook"
	"repro/internal/apps/serversim"
	"repro/internal/core/analyzer"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/radio"
	"repro/internal/testbed"
)

func profileByName(name string) *radio.Profile {
	switch name {
	case "3g":
		return radio.Profile3G()
	case "3g-simple":
		return radio.ProfileSimplified3G()
	case "wifi":
		return radio.ProfileWiFi()
	case "lte", "":
		return radio.ProfileLTE()
	}
	fmt.Fprintf(os.Stderr, "qoedoctor: unknown network %q\n", name)
	os.Exit(1)
	return nil
}

func main() {
	scenario := flag.String("scenario", "facebook-post", "facebook-post | facebook-update | youtube | browse")
	specPath := flag.String("spec", "", "JSON control specification to replay instead of a built-in scenario")
	network := flag.String("network", "lte", "lte | 3g | 3g-simple | wifi")
	throttle := flag.Float64("throttle", 0, "downlink throttle in bps (0 = none)")
	seed := flag.Int64("seed", 1, "simulation seed")
	reps := flag.Int("reps", 5, "repetitions of the replayed behaviour")
	pcapOut := flag.String("pcap", "", "write the captured trace to this libpcap file")
	qxdmOut := flag.String("qxdm", "", "write the radio log to this JSON file")
	loss := flag.Float64("loss", 0, "mean packet loss probability to inject (0 = none)")
	lossBurst := flag.Float64("loss-burst", 1, "average loss burst length (1 = independent losses, >1 = Gilbert-Elliott bursts)")
	outageAt := flag.Duration("outage-at", 0, "schedule a bearer outage at this virtual time")
	outageDur := flag.Duration("outage-dur", 0, "bearer outage duration (0 = no outage)")
	traceOut := flag.String("trace", "", "write the cross-layer trace to this Chrome trace_event JSON file")
	traceCSV := flag.String("trace-csv", "", "write the cross-layer trace to this CSV file")
	doReport := flag.Bool("report", false, "print the metrics registry snapshot as a table")
	reportJSON := flag.String("report-json", "", "write the metrics snapshot as NDJSON to this file (\"-\" = stdout)")
	doProfile := flag.Bool("profile", false, "print wall-clock time per kernel callback site")
	flag.Parse()

	plan := &faults.Plan{}
	if *loss > 0 {
		if *lossBurst > 1 {
			ge := faults.GEForMeanLoss(*loss, *lossBurst)
			plan.GE = &ge
		} else {
			plan.LossProb = *loss
		}
	}
	if *outageDur > 0 {
		plan.Outages = []faults.Outage{{Start: *outageAt, Duration: *outageDur}}
	}

	b, err := testbed.New(testbed.Options{
		Seed:        *seed,
		Profile:     profileByName(*network),
		Faults:      plan,
		ThrottleBps: *throttle,
		Trace:       *traceOut != "" || *traceCSV != "",
		Metrics:     *doReport || *reportJSON != "",
		Profiler:    *doProfile,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoedoctor: %v\n", err)
		os.Exit(1)
	}
	log := &qoe.BehaviorLog{}

	if *specPath != "" {
		runSpec(b, log, *specPath)
	} else {
		switch *scenario {
		case "facebook-post":
			runFacebookPost(b, log, *reps)
		case "facebook-update":
			runFacebookUpdate(b, log, *reps)
		case "youtube":
			runYouTube(b, log, *reps)
		case "browse":
			runBrowse(b, log, *reps)
		default:
			fmt.Fprintf(os.Stderr, "qoedoctor: unknown scenario %q\n", *scenario)
			os.Exit(1)
		}
	}

	b.CloseObs()
	report(b, log, *doReport)

	if *traceOut != "" {
		writeOrDie(*traceOut, func(w io.Writer) error { return obs.WriteChromeTrace(w, b.Trace.Events()) })
		fmt.Printf("wrote %d trace events to %s\n", b.Trace.Len(), *traceOut)
	}
	if *traceCSV != "" {
		writeOrDie(*traceCSV, func(w io.Writer) error { return obs.WriteCSV(w, b.Trace.Events()) })
		fmt.Printf("wrote %d trace events to %s\n", b.Trace.Len(), *traceCSV)
	}
	if *reportJSON != "" {
		snap := b.Metrics.Snapshot()
		if *reportJSON == "-" {
			if err := snap.WriteNDJSON(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "qoedoctor: writing report: %v\n", err)
				os.Exit(1)
			}
		} else {
			writeOrDie(*reportJSON, snap.WriteNDJSON)
		}
	}
	if *doProfile {
		fmt.Println("\n== Kernel wall-clock profile (non-deterministic) ==")
		fmt.Print(b.Profiler.Report(15))
	}
	if *pcapOut != "" {
		if err := b.Capture.WriteFile(*pcapOut); err != nil {
			fmt.Fprintf(os.Stderr, "qoedoctor: writing pcap: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d captured frames to %s\n", b.Capture.Len(), *pcapOut)
	}
	if *qxdmOut != "" && b.QxDM != nil {
		if err := b.QxDM.Log().WriteFile(*qxdmOut); err != nil {
			fmt.Fprintf(os.Stderr, "qoedoctor: writing qxdm log: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote radio log (%d PDUs) to %s\n", len(b.QxDM.Log().PDUs), *qxdmOut)
	}
}

// runSpec replays a user-authored control specification (§4.1) across all
// three apps.
func runSpec(b *testbed.Bed, log *qoe.BehaviorLog, path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoedoctor: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	spec, err := controller.ParseSpec(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoedoctor: %v\n", err)
		os.Exit(1)
	}
	b.Facebook.Connect()
	b.YouTube.Connect()
	b.K.RunUntil(3 * time.Second)
	fbCtl := controller.New(b.K, b.Facebook.Screen, log)
	ytCtl := controller.New(b.K, b.YouTube.Screen, log)
	ytCtl.Timeout = time.Hour
	ytCtl.Instrumentation().SetPollInterval(100 * time.Millisecond)
	brCtl := controller.New(b.K, b.Browser.Screen, log)
	script, err := spec.Compile(controller.Drivers{
		Facebook: controller.NewFacebookDriver(fbCtl, false),
		YouTube:  &controller.YouTubeDriver{C: ytCtl, SkipAds: true},
		Browser:  &controller.BrowserDriver{C: brCtl},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoedoctor: %v\n", err)
		os.Exit(1)
	}
	done := false
	script.Play(b.K, func() { done = true })
	b.K.RunUntil(b.K.Now() + 4*time.Hour)
	if !done {
		fmt.Fprintln(os.Stderr, "qoedoctor: warning: spec replay did not finish within the time horizon")
	}
}

func runFacebookPost(b *testbed.Bed, log *qoe.BehaviorLog, reps int) {
	b.Facebook.Connect()
	b.K.RunUntil(3 * time.Second)
	c := controller.New(b.K, b.Facebook.Screen, log)
	d := controller.NewFacebookDriver(c, false)
	kinds := []string{facebook.PostStatus, facebook.PostCheckin, facebook.PostPhotos}
	var run func(i int)
	run = func(i int) {
		if i >= reps*len(kinds) {
			return
		}
		d.UploadPost(kinds[i%len(kinds)], i, func(qoe.BehaviorEntry) {
			b.K.After(2*time.Second, func() { run(i + 1) })
		})
	}
	run(0)
	b.K.RunUntil(b.K.Now() + time.Duration(reps)*2*time.Minute)
}

func runFacebookUpdate(b *testbed.Bed, log *qoe.BehaviorLog, reps int) {
	b.Facebook.Connect()
	b.K.RunUntil(3 * time.Second)
	c := controller.New(b.K, b.Facebook.Screen, log)
	d := controller.NewFacebookDriver(c, false)
	var run func(i int)
	run = func(i int) {
		if i >= reps {
			return
		}
		d.PullToUpdate(func(qoe.BehaviorEntry) {
			b.K.After(5*time.Second, func() { run(i + 1) })
		})
	}
	run(0)
	b.K.RunUntil(b.K.Now() + time.Duration(reps)*time.Minute)
}

func runYouTube(b *testbed.Bed, log *qoe.BehaviorLog, reps int) {
	b.YouTube.Connect()
	b.K.RunUntil(2 * time.Second)
	c := controller.New(b.K, b.YouTube.Screen, log)
	c.Timeout = time.Hour
	c.Instrumentation().SetPollInterval(100 * time.Millisecond)
	d := &controller.YouTubeDriver{C: c}
	var run func(i int)
	run = func(i int) {
		if i >= reps {
			return
		}
		kw := string(rune('a' + i%26))
		d.SearchAndPlay(kw, i%10, func(controller.WatchStats) {
			b.K.After(3*time.Second, func() { run(i + 1) })
		})
	}
	run(0)
	b.K.RunUntil(b.K.Now() + time.Duration(reps)*30*time.Minute)
}

func runBrowse(b *testbed.Bed, log *qoe.BehaviorLog, reps int) {
	c := controller.New(b.K, b.Browser.Screen, log)
	d := &controller.BrowserDriver{C: c}
	urls := make([]string, reps)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/page-%d", serversim.WebHostBase, i)
	}
	d.LoadPages(urls, 10*time.Second, nil)
	b.K.RunUntil(time.Duration(reps) * 2 * time.Minute)
}

// report prints the multi-layer analysis.
func report(b *testbed.Bed, log *qoe.BehaviorLog, showMetrics bool) {
	sess := b.Session(log)
	app := analyzer.AnalyzeApp(log)
	cl := analyzer.NewCrossLayer(sess)

	// Surface analyzer data-quality warnings in the default output and the
	// metrics snapshot; previously only the faults experiment looked at them.
	if n := len(cl.Warnings); n > 0 {
		fmt.Printf("analyzer: %d warning(s) (first: %s)\n", n, cl.Warnings[0])
		for _, w := range cl.Warnings {
			fmt.Printf("  warning: %s\n", w)
		}
	}
	b.Metrics.Counter("analyzer_warnings").Add(len(cl.Warnings))
	if b.FaultUL != nil {
		fmt.Printf("fault injection: %d UL + %d DL packets dropped; %d bearer outage(s)\n",
			b.FaultUL.Dropped(), b.FaultDL.Dropped(), b.Net.Bearer.OutageCount())
	}

	fmt.Println("== Application layer (user-perceived latency) ==")
	tbl := &metrics.Table{Headers: []string{"App", "Action", "Kind", "Raw", "Calibrated", "Device", "Network", "Flow host"}}
	for _, l := range app.Latencies {
		s := cl.SplitDeviceNetwork(l)
		host := ""
		if s.Flow != nil {
			host = s.Flow.Host
		}
		tbl.AddRow(l.Entry.App, l.Entry.Action, l.Entry.Kind.String(),
			fmt.Sprintf("%.3fs", l.Raw.Seconds()), fmt.Sprintf("%.3fs", l.Calibrated.Seconds()),
			fmt.Sprintf("%.3fs", s.Device.Seconds()), fmt.Sprintf("%.3fs", s.Network.Seconds()), host)
	}
	fmt.Print(tbl.String())

	fmt.Println("\n== Transport/network layer ==")
	ftbl := &metrics.Table{Headers: []string{"Flow", "Host", "UL bytes", "DL bytes", "Retx", "Mean RTT"}}
	for _, f := range cl.Flows.Flows {
		ftbl.AddRow(fmt.Sprintf("%s > %s", f.Device, f.Server), f.Host,
			fmt.Sprintf("%d", f.ULBytes), fmt.Sprintf("%d", f.DLBytes),
			fmt.Sprintf("%d", f.Retransmissions), fmt.Sprintf("%.0fms", f.MeanRTT().Seconds()*1000))
	}
	fmt.Print(ftbl.String())

	if sess.Radio != nil {
		fmt.Println("\n== RRC/RLC layer ==")
		fmt.Printf("RRC transitions: %d; data PDUs: %d; STATUS PDUs: %d\n",
			len(sess.Radio.Transitions), len(sess.Radio.PDUs), len(sess.Radio.Statuses))
		fmt.Printf("IP-to-RLC mapping: UL %.2f%%, DL %.2f%%\n", 100*cl.ULMap.Ratio(), 100*cl.DLMap.Ratio())
		rep := power.Analyze(sess.Profile, sess.Radio, 0, b.K.Now())
		fmt.Printf("Radio energy: %.1f J active (%.1f J tail, %.1f J transfer) + %.1f J idle floor\n",
			rep.ActiveJ(), rep.TailJ, rep.NonTailJ, rep.BaseJ)
	}

	if showMetrics {
		fmt.Println("\n== Metrics ==")
		mtbl := &metrics.Table{Headers: []string{"Metric", "Kind", "Value", "Count"}}
		for _, row := range b.Metrics.Snapshot().Rows() {
			mtbl.AddRow(row[0], row[1], row[2], row[3])
		}
		fmt.Print(mtbl.String())
	}
}

// writeOrDie creates path and writes it with fn, exiting on any error.
func writeOrDie(path string, fn func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoedoctor: %v\n", err)
		os.Exit(1)
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoedoctor: writing %s: %v\n", path, err)
		os.Exit(1)
	}
}
