// Command qoefleet runs a multi-UE fleet scenario: N simulated devices
// share one cell, a workload drives every device, and the per-UE QoE
// reports are aggregated into fleet KPIs (p50/p95/p99 rebuffer ratio,
// pageload, RRC energy).
//
// Usage:
//
//	qoefleet -ues 8                       # 8 UEs, round-robin, browse
//	qoefleet -ues 64 -policy pf -workload youtube
//	qoefleet -ues 8 -gains 0.5:1.5        # linear link-quality spread
//	qoefleet -ues 4 -trace fleet.json     # per-UE Chrome trace processes
//	qoefleet -ues 8 -emit http://127.0.0.1:8711   # stream QoE into qoeserve
//	qoefleet -ues 64 -cells 4             # sharded multi-cell grid, parallel kernels
//	qoefleet -ues 64 -cells 4 -mobility 20  # UEs drive at 20 m/s, handovers emerge
//	qoefleet -throttle 280e3 -remedy      # closed-loop remediation under a carrier throttle
//	qoefleet -config scen.json -ues 32    # scenario from JSON; flags override the file
//	cat scen.json | qoefleet -config -    # ... or from stdin
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/qoestore"
	"repro/internal/radio"
)

// stdin is the reader behind `-config -`, swappable in tests.
var stdin io.Reader = os.Stdin

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "qoefleet: %v\n", err)
		}
		os.Exit(1)
	}
}

// newLogger builds the structured JSON logger on w, or a discard logger
// for level "off" so call sites stay unconditional. Human-readable status
// lines stay on stdout; slog records go to stderr for machines.
func newLogger(w io.Writer, level string) (*slog.Logger, error) {
	if level == "off" {
		return slog.New(slog.NewJSONHandler(io.Discard, nil)), nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level: %w", err)
	}
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: lvl})), nil
}

func profileByName(name string) (*radio.Profile, error) {
	switch name {
	case "3g":
		return radio.Profile3G(), nil
	case "3g-simple":
		return radio.ProfileSimplified3G(), nil
	case "wifi":
		return radio.ProfileWiFi(), nil
	case "lte", "":
		return radio.ProfileLTE(), nil
	}
	return nil, fmt.Errorf("unknown network %q (lte | 3g | 3g-simple | wifi)", name)
}

// run is the testable entry point: flags from args, output on the given
// writers, errors returned instead of os.Exit, panics converted to errors.
func run(args []string, stdout, stderr io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: %v", r)
		}
	}()

	// The config file (if any) loads first and supplies the flag defaults,
	// so explicitly passed flags override the file — standard flag parsing
	// implements the precedence.
	cfg, err := cliconfig.Load(cliconfig.PeekPath(args), stdin)
	if err != nil {
		return err
	}
	defInt := func(v, d int) int {
		if v != 0 {
			return v
		}
		return d
	}
	defStr := func(v, d string) string {
		if v != "" {
			return v
		}
		return d
	}
	defI64 := func(v, d int64) int64 {
		if v != 0 {
			return v
		}
		return d
	}
	defDur := func(v cliconfig.Duration, d time.Duration) time.Duration {
		if v != 0 {
			return time.Duration(v)
		}
		return d
	}

	fs := flag.NewFlagSet("qoefleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.String("config", "", `JSON scenario config ("-" = stdin); flags override file values`)
	ues := fs.Int("ues", defInt(cfg.UEs, 8), "number of UEs sharing the cell")
	policy := fs.String("policy", defStr(cfg.Policy, "rr"), "cell scheduler: rr (round-robin) | pf (proportional fair)")
	workload := fs.String("workload", defStr(cfg.Workload, "browse"), "workload: youtube | browse | facebook")
	network := fs.String("network", defStr(cfg.Network, "lte"), "lte | 3g | 3g-simple | wifi")
	seed := fs.Int64("seed", defI64(cfg.Seed, 1), "simulation seed")
	horizon := fs.Duration("horizon", defDur(cfg.Horizon, 10*time.Minute), "virtual-time run length")
	gains := fs.String("gains", cfg.Gains, "linear link-quality spread lo:hi across UEs (default: all 1)")
	cells := fs.Int("cells", defInt(cfg.Cells, 1), "number of cells (grid topology; >1 shards the run, one kernel per cell)")
	mobility := fs.Float64("mobility", cfg.MobilityMps, "UE speed in m/s across the topology (0 = static; requires -cells > 1)")
	x2 := fs.Duration("x2", time.Duration(cfg.X2Latency), "inter-cell X2 latency: handover forwarding delay and shard lookahead window (0 = 10ms; requires -cells > 1)")
	workers := fs.Int("workers", cfg.Workers, "shard worker goroutines (0 = GOMAXPROCS; results identical at any count; requires -cells > 1)")
	throttle := fs.Float64("throttle", cfg.ThrottleBps, "per-UE downlink carrier throttle in bit/s (0 = none)")
	remedyOn := fs.Bool("remedy", cfg.Remedy != nil, "enable the closed-loop remediation controller")
	remedyObserve := fs.Bool("remedy-observe", cfg.Remedy != nil && cfg.Remedy.Observe, "diagnose without actuating (requires -remedy)")
	traceOut := fs.String("trace", "", "write a merged Chrome trace (one process per UE) to this file")
	emit := fs.String("emit", "", "stream QoE events to a qoeserve URL (e.g. http://127.0.0.1:8711)")
	emitSource := fs.String("emit-source", "", "source name for emitted events (default fleet-<seed>)")
	logLevel := fs.String("log-level", "off", "structured JSON log level on stderr: debug|info|warn|error|off")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	logger, err := newLogger(stderr, *logLevel)
	if err != nil {
		return err
	}

	if *ues <= 0 {
		return fmt.Errorf("-ues must be positive, got %d", *ues)
	}
	if *horizon <= 0 {
		return fmt.Errorf("-horizon must be positive, got %v", *horizon)
	}
	pol, err := radio.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	wl, err := fleet.ParseWorkload(*workload)
	if err != nil {
		return err
	}
	prof, err := profileByName(*network)
	if err != nil {
		return err
	}

	specs := fleet.UniformUEs(*ues)
	if *gains != "" {
		var lo, hi float64
		if _, err := fmt.Sscanf(strings.Replace(*gains, ":", " ", 1), "%g %g", &lo, &hi); err != nil || lo <= 0 || hi <= 0 {
			return fmt.Errorf("bad -gains %q (want lo:hi, both positive)", *gains)
		}
		fleet.SpreadGains(specs, lo, hi)
	}

	opts := []fleet.Option{fleet.WithHorizon(*horizon)}
	if *traceOut != "" || *emit != "" {
		opts = append(opts, fleet.WithTrace())
	}

	if *cells < 1 {
		return fmt.Errorf("-cells must be at least 1, got %d", *cells)
	}
	if *mobility < 0 {
		return fmt.Errorf("-mobility must not be negative, got %v", *mobility)
	}
	if *mobility > 0 && *cells < 2 {
		return fmt.Errorf("-mobility needs a multi-cell topology (-cells > 1)")
	}
	if *x2 < 0 {
		return fmt.Errorf("-x2 must not be negative, got %v", *x2)
	}
	// Options that only mean something on a multi-cell run are rejected,
	// not silently ignored, on one cell (one shard, one kernel).
	if *cells < 2 && *x2 != 0 {
		return fmt.Errorf("-x2 needs a multi-cell topology (-cells > 1)")
	}
	if *cells < 2 && *workers != 0 {
		return fmt.Errorf("-workers needs a multi-cell topology (-cells > 1); a single-cell run has one kernel")
	}
	if *throttle < 0 {
		return fmt.Errorf("-throttle must not be negative, got %v", *throttle)
	}
	if explicit["remedy-observe"] && *remedyObserve && !*remedyOn {
		return fmt.Errorf("-remedy-observe requires -remedy")
	}
	if *emitSource != "" && *emit == "" {
		return fmt.Errorf("-emit-source requires -emit")
	}

	if *throttle > 0 {
		for i := range specs {
			specs[i].ThrottleBps = *throttle
		}
	}

	scen := fleet.Scenario{
		Seed:     *seed,
		Cell:     fleet.CellSpec{Profile: prof, Policy: pol},
		UEs:      specs,
		Workload: wl,
	}
	if *remedyOn {
		spec := cfg.Remedy.Spec()
		if spec == nil {
			spec = &fleet.RemedySpec{}
		}
		spec.Observe = *remedyObserve
		scen.Remedy = spec
	}
	if *cells > 1 {
		scen.Topology = &fleet.TopologySpec{Cells: *cells, X2Latency: *x2}
		opts = append(opts, fleet.WithWorkers(*workers))
	}
	if *mobility > 0 {
		scen.Mobility = &fleet.MobilitySpec{SpeedMps: *mobility}
	}
	f, err := fleet.Build(scen, opts...)
	if err != nil {
		return err
	}
	logger.Info("fleet built", "ues", *ues, "cells", *cells, "policy", *policy, "workload", *workload,
		"network", *network, "seed", *seed, "horizon", horizon.String())
	f.Drive()
	f.RunTo(*horizon)
	f.CloseObs()
	report := f.Report()
	logger.Info("run complete", "ues", len(report.UEs), "virtual_time", horizon.String())
	fmt.Fprint(stdout, report.Render())

	if *traceOut != "" {
		procs := make([]obs.Process, len(f.UEs))
		total := 0
		for i, ue := range f.UEs {
			procs[i] = obs.Process{Pid: i + 1, Name: ue.Name, Events: ue.Trace.Events()}
			total += len(procs[i].Events)
		}
		if err := writeFile(*traceOut, func(w io.Writer) error { return obs.WriteChromeTraceMulti(w, procs) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d trace events (%d UE processes) to %s\n", total, len(procs), *traceOut)
	}

	if *emit != "" {
		source := *emitSource
		if source == "" {
			source = fmt.Sprintf("fleet-%d", *seed)
		}
		em, err := qoestore.NewEmitter(&qoestore.HTTPIngestor{BaseURL: strings.TrimRight(*emit, "/")}, qoestore.EmitterConfig{Source: source})
		if err != nil {
			return err
		}
		n := fleet.EmitReport(em, f, report)
		em.Close()
		st := em.Stats()
		logger.Info("emitted", "events", n, "collector", *emit, "source", source,
			"delivered", st.Delivered, "dropped", st.DroppedQ+st.DroppedRe, "retries", st.Retries, "shed", st.Shed)
		fmt.Fprintf(stdout, "emitted %d QoE events to %s as %q: %d delivered, %d dropped (queue %d, retries %d), %d shed by store\n",
			n, *emit, source, st.Delivered, st.DroppedQ+st.DroppedRe, st.DroppedQ, st.Retries, st.Shed)
		if st.Delivered == 0 && n > 0 {
			return fmt.Errorf("emitted 0 of %d events to %s (is qoeserve running?)", n, *emit)
		}
	}
	return nil
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
