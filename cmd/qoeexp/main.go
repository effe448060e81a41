// Command qoeexp runs the paper-reproduction experiments: every table and
// figure of QoE Doctor's evaluation (§7), regenerated on the simulated
// testbed.
//
// Usage:
//
//	qoeexp -list                      # show the experiment index (Table 2)
//	qoeexp -run fig7 [-seed N]        # run one experiment
//	qoeexp -all [-seed N]             # run everything in paper order
//	qoeexp -all -parallel 0           # ... on all cores (0 = GOMAXPROCS)
//	qoeexp -all -seeds 42..49         # ... across a seed grid
//	qoeexp -run remedy -ues 12        # scenario knobs override paper defaults
//	qoeexp -run fleet -config s.json  # ... or load them from JSON ("-" = stdin)
//
// Cells of the (experiment × seed) grid are independent — each builds its
// own simulation kernel — so -parallel changes wall-clock time only; the
// output is byte-identical to a serial run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// newLogger builds the structured JSON logger on w, or a discard logger
// for level "off" so call sites stay unconditional. Tables stay on stdout;
// slog records go to stderr for machines.
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

// stdin is the reader behind `-config -`, swappable in tests.
var stdin io.Reader = os.Stdin

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "qoeexp: %v\n", err)
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

	// The config file (if any) loads first and supplies the flag defaults,
	// so explicitly passed flags override the file.
	cfg, err := cliconfig.Load(cliconfig.PeekPath(args), stdin)
	if err != nil {
		return err
	}
	defSeed := cfg.Seed
	if defSeed == 0 {
		defSeed = 42
	}

	fs := flag.NewFlagSet("qoeexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.String("config", "", `JSON scenario config ("-" = stdin); flags override file values`)
	list := fs.Bool("list", false, "list experiments")
	runID := fs.String("run", "", "experiment id to run (e.g. fig7, table3, sec7.7)")
	all := fs.Bool("all", false, "run every experiment")
	seed := fs.Int64("seed", defSeed, "simulation seed")
	seeds := fs.String("seeds", "", "seed grid, e.g. 42..49 or 1,5,9 (overrides -seed)")
	parallel := fs.Int("parallel", 1, "worker count for the sweep; 0 = GOMAXPROCS")
	horizon := fs.Duration("horizon", time.Duration(cfg.Horizon), "override the experiment's virtual-time horizon (0 = paper default)")
	ues := fs.Int("ues", cfg.UEs, "override the fleet population of multi-UE experiments (0 = paper default)")
	cells := fs.Int("cells", cfg.Cells, "override the topology size of multi-cell experiments (0 = paper default)")
	speed := fs.Float64("speed", cfg.MobilityMps, "override the mobility speed (m/s) of handover experiments (0 = paper default)")
	loss := fs.Float64("loss", cfg.LossRate, "override the injected mean loss rate of impairment experiments (0 = paper sweep)")
	throttle := fs.Float64("throttle", cfg.ThrottleBps, "override the carrier throttle rate (bit/s) of throttling experiments (0 = paper sweep)")
	remedyOn := fs.Bool("remedy", cfg.Remedy != nil, "put the remediation controller in the loop for experiments that support it")
	remedyObserve := fs.Bool("remedy-observe", cfg.Remedy != nil && cfg.Remedy.Observe, "diagnose without actuating (requires -remedy)")
	logLevel := fs.String("log-level", "off", "structured JSON log level on stderr: debug|info|warn|error|off")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", *parallel)
	}
	if *horizon < 0 || *ues < 0 || *cells < 0 || *speed < 0 || *loss < 0 || *throttle < 0 {
		return fmt.Errorf("scenario overrides must not be negative")
	}
	if *loss >= 1 {
		return fmt.Errorf("-loss is a rate, want < 1, got %v", *loss)
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if explicit["remedy-observe"] && *remedyObserve && !*remedyOn {
		return fmt.Errorf("-remedy-observe requires -remedy")
	}
	if *list && (explicit["ues"] || explicit["horizon"] || explicit["cells"] ||
		explicit["speed"] || explicit["loss"] || explicit["throttle"] || explicit["remedy"]) {
		return fmt.Errorf("-list takes no scenario overrides")
	}
	params := experiments.Params{
		Horizon:     *horizon,
		UEs:         *ues,
		Cells:       *cells,
		SpeedMps:    *speed,
		LossRate:    *loss,
		ThrottleBps: *throttle,
	}
	if *remedyOn {
		params.Remedy = &fleet.RemedySpec{Observe: *remedyObserve}
	}
	logger, err := newLogger(stderr, *logLevel)
	if err != nil {
		return err
	}

	grid := []int64{*seed}
	if *seeds != "" {
		grid, err = sweep.ParseSeeds(*seeds)
		if err != nil {
			return err
		}
	}

	switch {
	case *list:
		tbl := &metrics.Table{
			Title:   "Experiment index (paper Table 2 + §7.1)",
			Headers: []string{"ID", "Artifact", "Goal"},
		}
		for _, e := range experiments.Registry() {
			tbl.AddRow(e.ID, e.Title, e.Goal)
		}
		fmt.Fprint(stdout, tbl.String())
		return nil
	case *runID != "":
		e, ok := experiments.Lookup(*runID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *runID)
		}
		if len(grid) == 1 && *parallel == 1 {
			logger.Info("experiment start", "id", e.ID, "seed", grid[0])
			fmt.Fprint(stdout, e.Run(grid[0], params).Render())
			logger.Info("experiment done", "id", e.ID, "seed", grid[0])
			return nil
		}
		return runSweep(stdout, logger, withParams(sweep.Grid([]experiments.Experiment{e}, grid), params), *parallel, len(grid) > 1)
	case *all:
		return runSweep(stdout, logger, withParams(sweep.Grid(experiments.Registry(), grid), params), *parallel, len(grid) > 1)
	default:
		fs.Usage()
		return flag.ErrHelp
	}
}

// withParams stamps the scenario knobs onto every grid cell.
func withParams(cells []sweep.Cell, p experiments.Params) []sweep.Cell {
	for i := range cells {
		cells[i].Params = p
	}
	return cells
}

func runSweep(stdout io.Writer, logger *slog.Logger, cells []sweep.Cell, workers int, showSeed bool) error {
	// Stream results as cells finish: the grid-order prefix prints while
	// later cells are still simulating, and the total output stays
	// byte-identical to a post-hoc Render.
	logger.Info("sweep start", "cells", len(cells), "workers", workers)
	st := sweep.NewStream(stdout, showSeed)
	// OnDone is serialized by the sweep, so logging from it is safe.
	results := sweep.Run(cells, sweep.Options{Workers: workers, OnDone: func(r sweep.Result) {
		if r.Err != nil {
			logger.Error("cell failed", "id", r.Exp.ID, "seed", r.Seed, "elapsed", r.Elapsed.String(), "err", r.Err.Error())
		} else {
			logger.Info("cell done", "id", r.Exp.ID, "seed", r.Seed, "elapsed", r.Elapsed.String())
		}
		st.Push(r)
	}})
	failed := sweep.Failed(results)
	logger.Info("sweep done", "cells", len(cells), "failed", failed)
	if failed > 0 {
		return fmt.Errorf("%d of %d cells failed", failed, len(cells))
	}
	return nil
}
