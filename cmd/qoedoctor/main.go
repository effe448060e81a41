// Command qoedoctor runs one QoE measurement scenario end-to-end on a
// simulated one-UE lab — the equivalent of deploying the paper's tool against
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
	"errors"
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
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/radio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "qoedoctor: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is the testable entry point: flags from args, output on the given
// writers, errors returned instead of os.Exit, panics converted to errors.
func run(args []string, stdout, stderr io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: %v", r)
		}
	}()

	fs := flag.NewFlagSet("qoedoctor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "facebook-post", "facebook-post | facebook-update | youtube | browse")
	specPath := fs.String("spec", "", "JSON control specification to replay instead of a built-in scenario")
	network := fs.String("network", "lte", "lte | 3g | 3g-simple | wifi")
	throttle := fs.Float64("throttle", 0, "downlink throttle in bps (0 = none)")
	seed := fs.Int64("seed", 1, "simulation seed")
	reps := fs.Int("reps", 5, "repetitions of the replayed behaviour")
	pcapOut := fs.String("pcap", "", "write the captured trace to this libpcap file")
	qxdmOut := fs.String("qxdm", "", "write the radio log to this JSON file")
	loss := fs.Float64("loss", 0, "mean packet loss probability to inject (0 = none)")
	lossBurst := fs.Float64("loss-burst", 1, "average loss burst length (1 = independent losses, >1 = Gilbert-Elliott bursts)")
	outageAt := fs.Duration("outage-at", 0, "schedule a bearer outage at this virtual time")
	outageDur := fs.Duration("outage-dur", 0, "bearer outage duration (0 = no outage)")
	traceOut := fs.String("trace", "", "write the cross-layer trace to this Chrome trace_event JSON file")
	traceCSV := fs.String("trace-csv", "", "write the cross-layer trace to this CSV file")
	doReport := fs.Bool("report", false, "print the metrics registry snapshot as a table")
	reportJSON := fs.String("report-json", "", "write the metrics snapshot as NDJSON to this file (\"-\" = stdout)")
	doProfile := fs.Bool("profile", false, "print wall-clock time per kernel callback site")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *reps < 1 {
		return fmt.Errorf("-reps must be at least 1, got %d", *reps)
	}
	if !(*loss >= 0 && *loss < 1) {
		return fmt.Errorf("-loss is a rate, want in [0, 1), got %v", *loss)
	}
	prof, err := radio.ParseProfile(*network)
	if err != nil {
		return err
	}

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

	var opts []fleet.Option
	if *traceOut != "" || *traceCSV != "" {
		opts = append(opts, fleet.WithTrace())
	}
	if *doReport || *reportJSON != "" {
		opts = append(opts, fleet.WithMetrics())
	}
	if *doProfile {
		opts = append(opts, fleet.WithProfiler())
	}
	f, err := fleet.Build(fleet.Scenario{
		Seed: *seed,
		Cell: fleet.CellSpec{Profile: prof},
		UEs:  []fleet.UESpec{{Faults: plan, ThrottleBps: *throttle}},
	}, opts...)
	if err != nil {
		return err
	}
	ue := f.UEs[0]
	log := &qoe.BehaviorLog{}

	if *specPath != "" {
		if err := runSpec(ue, log, *specPath, stderr); err != nil {
			return err
		}
	} else {
		switch *scenario {
		case "facebook-post":
			runFacebookPost(ue, log, *reps)
		case "facebook-update":
			runFacebookUpdate(ue, log, *reps)
		case "youtube":
			runYouTube(ue, log, *reps)
		case "browse":
			runBrowse(ue, log, *reps)
		default:
			return fmt.Errorf("unknown scenario %q", *scenario)
		}
	}

	ue.CloseObs()
	report(stdout, ue, log, *doReport)

	if *traceOut != "" {
		if err := writeFile(*traceOut, func(w io.Writer) error { return obs.WriteChromeTrace(w, ue.Trace.Events()) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d trace events to %s\n", ue.Trace.Len(), *traceOut)
	}
	if *traceCSV != "" {
		if err := writeFile(*traceCSV, func(w io.Writer) error { return obs.WriteCSV(w, ue.Trace.Events()) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d trace events to %s\n", ue.Trace.Len(), *traceCSV)
	}
	if *reportJSON != "" {
		snap := ue.Metrics.Snapshot()
		if *reportJSON == "-" {
			if err := snap.WriteNDJSON(stdout); err != nil {
				return fmt.Errorf("writing report: %w", err)
			}
		} else if err := writeFile(*reportJSON, snap.WriteNDJSON); err != nil {
			return err
		}
	}
	if *doProfile {
		fmt.Fprintln(stdout, "\n== Kernel wall-clock profile (non-deterministic) ==")
		fmt.Fprint(stdout, ue.Profiler.Report(15))
	}
	if *pcapOut != "" {
		if err := ue.Capture.WriteFile(*pcapOut); err != nil {
			return fmt.Errorf("writing pcap: %w", err)
		}
		fmt.Fprintf(stdout, "wrote %d captured frames to %s\n", ue.Capture.Len(), *pcapOut)
	}
	if *qxdmOut != "" && ue.QxDM != nil {
		if err := ue.QxDM.Log().WriteFile(*qxdmOut); err != nil {
			return fmt.Errorf("writing qxdm log: %w", err)
		}
		fmt.Fprintf(stdout, "wrote radio log (%d PDUs) to %s\n", len(ue.QxDM.Log().PDUs), *qxdmOut)
	}
	return nil
}

// runSpec replays a user-authored control specification (§4.1) across all
// three apps.
func runSpec(ue *fleet.UE, log *qoe.BehaviorLog, path string, stderr io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spec, err := controller.ParseSpec(f)
	if err != nil {
		return err
	}
	ue.Facebook.Connect()
	ue.YouTube.Connect()
	ue.K.RunUntil(3 * time.Second)
	fbCtl := controller.New(ue.K, ue.Facebook.Screen, log)
	ytCtl := controller.New(ue.K, ue.YouTube.Screen, log)
	ytCtl.Timeout = time.Hour
	ytCtl.Instrumentation().SetPollInterval(100 * time.Millisecond)
	brCtl := controller.New(ue.K, ue.Browser.Screen, log)
	script, err := spec.Compile(controller.Drivers{
		Facebook: controller.NewFacebookDriver(fbCtl, false),
		YouTube:  &controller.YouTubeDriver{C: ytCtl, SkipAds: true},
		Browser:  &controller.BrowserDriver{C: brCtl},
	})
	if err != nil {
		return err
	}
	done := false
	script.Play(ue.K, func() { done = true })
	ue.K.RunUntil(ue.K.Now() + 4*time.Hour)
	if !done {
		fmt.Fprintln(stderr, "qoedoctor: warning: spec replay did not finish within the time horizon")
	}
	return nil
}

func runFacebookPost(ue *fleet.UE, log *qoe.BehaviorLog, reps int) {
	ue.Facebook.Connect()
	ue.K.RunUntil(3 * time.Second)
	c := controller.New(ue.K, ue.Facebook.Screen, log)
	d := controller.NewFacebookDriver(c, false)
	kinds := []string{facebook.PostStatus, facebook.PostCheckin, facebook.PostPhotos}
	var run func(i int)
	run = func(i int) {
		if i >= reps*len(kinds) {
			return
		}
		d.UploadPost(kinds[i%len(kinds)], i, func(qoe.BehaviorEntry) {
			ue.K.After(2*time.Second, func() { run(i + 1) })
		})
	}
	run(0)
	ue.K.RunUntil(ue.K.Now() + time.Duration(reps)*2*time.Minute)
}

func runFacebookUpdate(ue *fleet.UE, log *qoe.BehaviorLog, reps int) {
	ue.Facebook.Connect()
	ue.K.RunUntil(3 * time.Second)
	c := controller.New(ue.K, ue.Facebook.Screen, log)
	d := controller.NewFacebookDriver(c, false)
	var run func(i int)
	run = func(i int) {
		if i >= reps {
			return
		}
		d.PullToUpdate(func(qoe.BehaviorEntry) {
			ue.K.After(5*time.Second, func() { run(i + 1) })
		})
	}
	run(0)
	ue.K.RunUntil(ue.K.Now() + time.Duration(reps)*time.Minute)
}

func runYouTube(ue *fleet.UE, log *qoe.BehaviorLog, reps int) {
	ue.YouTube.Connect()
	ue.K.RunUntil(2 * time.Second)
	c := controller.New(ue.K, ue.YouTube.Screen, log)
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
			ue.K.After(3*time.Second, func() { run(i + 1) })
		})
	}
	run(0)
	ue.K.RunUntil(ue.K.Now() + time.Duration(reps)*30*time.Minute)
}

func runBrowse(ue *fleet.UE, log *qoe.BehaviorLog, reps int) {
	c := controller.New(ue.K, ue.Browser.Screen, log)
	d := &controller.BrowserDriver{C: c}
	urls := make([]string, reps)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/page-%d", serversim.WebHostBase, i)
	}
	d.LoadPages(urls, 10*time.Second, nil)
	ue.K.RunUntil(time.Duration(reps) * 2 * time.Minute)
}

// report prints the multi-layer analysis to w.
func report(w io.Writer, ue *fleet.UE, log *qoe.BehaviorLog, showMetrics bool) {
	sess := ue.Session(log)
	app := analyzer.AnalyzeApp(log)
	cl := analyzer.NewCrossLayer(sess)

	// Surface analyzer data-quality warnings in the default output and the
	// metrics snapshot; previously only the faults experiment looked at them.
	if n := len(cl.Warnings); n > 0 {
		fmt.Fprintf(w, "analyzer: %d warning(s) (first: %s)\n", n, cl.Warnings[0])
		for _, warn := range cl.Warnings {
			fmt.Fprintf(w, "  warning: %s\n", warn)
		}
	}
	ue.Metrics.Counter("analyzer_warnings").Add(len(cl.Warnings))
	if ue.FaultUL != nil {
		fmt.Fprintf(w, "fault injection: %d UL + %d DL packets dropped; %d bearer outage(s)\n",
			ue.FaultUL.Dropped(), ue.FaultDL.Dropped(), ue.Net.Bearer.OutageCount())
	}

	fmt.Fprintln(w, "== Application layer (user-perceived latency) ==")
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
	fmt.Fprint(w, tbl.String())

	fmt.Fprintln(w, "\n== Transport/network layer ==")
	ftbl := &metrics.Table{Headers: []string{"Flow", "Host", "UL bytes", "DL bytes", "Retx", "Mean RTT"}}
	for _, f := range cl.Flows.Flows {
		ftbl.AddRow(fmt.Sprintf("%s > %s", f.Device, f.Server), f.Host,
			fmt.Sprintf("%d", f.ULBytes), fmt.Sprintf("%d", f.DLBytes),
			fmt.Sprintf("%d", f.Retransmissions), fmt.Sprintf("%.0fms", f.MeanRTT().Seconds()*1000))
	}
	fmt.Fprint(w, ftbl.String())

	if sess.Radio != nil {
		fmt.Fprintln(w, "\n== RRC/RLC layer ==")
		fmt.Fprintf(w, "RRC transitions: %d; data PDUs: %d; STATUS PDUs: %d\n",
			len(sess.Radio.Transitions), len(sess.Radio.PDUs), len(sess.Radio.Statuses))
		fmt.Fprintf(w, "IP-to-RLC mapping: UL %.2f%%, DL %.2f%%\n", 100*cl.ULMap.Ratio(), 100*cl.DLMap.Ratio())
		rep := power.Analyze(sess.Profile, sess.Radio, 0, ue.K.Now())
		fmt.Fprintf(w, "Radio energy: %.1f J active (%.1f J tail, %.1f J transfer) + %.1f J idle floor\n",
			rep.ActiveJ(), rep.TailJ, rep.NonTailJ, rep.BaseJ)
	}

	if showMetrics {
		fmt.Fprintln(w, "\n== Metrics ==")
		mtbl := &metrics.Table{Headers: []string{"Metric", "Kind", "Value", "Count"}}
		for _, row := range ue.Metrics.Snapshot().Rows() {
			mtbl.AddRow(row[0], row[1], row[2], row[3])
		}
		fmt.Fprint(w, mtbl.String())
	}
}

// writeFile creates path and writes it with fn, reporting any error with
// the path attached.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
