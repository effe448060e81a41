package fleet

import (
	"time"

	"repro/internal/core/analyzer"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/simtime"
)

// Fleet is an assembled multi-UE lab: one shard per cell, each shard an
// event kernel hosting the full stacks of the UEs homed on its cell. A
// multi-cell fleet advances its shards in lockstep epochs under a grid
// Topo; a one-cell fleet is a single shard with no Topo, run without
// barriers. Build it from a Scenario, Drive the workload (or drive the UEs
// yourself), RunTo the horizon, then Report.
type Fleet struct {
	// K is the kernel of a one-shard fleet (nil when the fleet is sharded
	// across cells): a shorthand for Shards[0].K when there is only one.
	K   *simtime.Kernel
	UEs []*UE
	// Shards holds one shard per cell. Topo is the cell grid of a
	// multi-cell fleet, whose shards synchronize at X2Latency lookahead
	// barriers; it is nil for a one-cell fleet.
	Shards []*Shard
	Topo   *radio.Topology
	// Profiler is the kernel-wide wall-clock profiler (nil unless
	// WithProfiler; it profiles shard 0's kernel).
	Profiler *obs.Profiler

	scen Scenario
	opts options
	// airUL/airDL[c][s] is the barrier scratch for cell c's airtime on
	// shard s over the last epoch.
	airUL, airDL [][]simtime.Time

	// controlState is the runtime-control surface: registered control
	// hooks, the built-in remediation controller, and the cross-shard
	// action mailbox (see control.go).
	controlState
}

// Build assembles a fleet without running it: one shard per cell, UE i
// homed on cell i mod cells, every shard holding local instances of all
// cells for kernel-local handover. UEs are constructed in spec order; UE i
// lives at BaseAddr+i and its bearer is attached to its home cell in the
// same order, which is also the scheduler's tie-break order.
//
// A one-cell fleet is one shard whose kernel takes the scenario seed
// unmixed, with no Topo; its kernel trace goes to its UE when it has
// exactly one. Shards of a multi-cell fleet take seeds mixed per shard.
func Build(scen Scenario, opts ...Option) (*Fleet, error) {
	if err := scen.validate(); err != nil {
		return nil, err
	}
	o := resolveOptions(opts)
	prof := scen.Cell.Profile
	if prof == nil {
		prof = radio.ProfileLTE()
	}
	coreDelay := scen.Cell.CoreDelay
	if coreDelay == 0 {
		coreDelay = defaultCoreDelay(prof.Tech)
	}

	f := &Fleet{scen: scen, opts: o}
	ncells := scen.cellCount()
	if ncells > 1 {
		ts := scen.Topology
		f.Topo = radio.NewGridTopology(ncells, ts.SpacingM)
		if ts.X2Latency > 0 {
			f.Topo.X2Latency = ts.X2Latency
		}
		if ts.PathLossExp > 0 {
			f.Topo.PathLossExp = ts.PathLossExp
		}
	}
	for s := 0; s < ncells; s++ {
		seed := scen.Seed
		if f.Topo != nil {
			seed = shardSeed(scen.Seed, s)
		}
		sh := &Shard{Index: s, K: simtime.NewKernel(seed)}
		for c := 0; c < ncells; c++ {
			sh.Cells = append(sh.Cells, radio.NewCellID(sh.K, scen.Cell.Policy, c))
		}
		f.Shards = append(f.Shards, sh)
	}
	if f.Topo == nil {
		f.K = f.Shards[0].K
	}
	// One UE on one kernel: the kernel's own spans belong to it.
	kernelTrace := f.Topo == nil && len(scen.UEs) == 1

	addr := BaseAddr
	for i, spec := range scen.UEs {
		home := i % ncells
		sh := f.Shards[home]

		var mover *radio.Mover
		deviceGain := spec.Gain
		if deviceGain <= 0 {
			deviceGain = 1
		}
		buildSpec := spec
		if scen.Mobility != nil {
			u, v := uePos(scen.Seed, i)
			x, y := f.Topo.HomePos(home, u, v)
			mover = radio.NewMover(scen.Seed, i, f.Topo, scen.Mobility.SpeedMps, x, y)
			// The bearer's initial gain is the path gain at the spawn point
			// composed with the spec's device-quality multiplier; the roamer
			// refreshes it every measurement tick.
			buildSpec.Gain = f.Topo.Gain(home, x, y) * deviceGain
		}

		ue := buildUE(sh.K, sh.Cells[home], prof, coreDelay, i, addr, buildSpec, scen.Seed, o, kernelTrace)
		ue.Shard = home
		ue.HomeCell = home
		if m := scen.Mobility; m != nil {
			ue.Roamer = radio.NewRoamer(ue.Net.Bearer, f.Topo, sh.Cells, mover, home, radio.RoamConfig{
				Interval:     m.Interval,
				Hysteresis:   m.Hysteresis,
				TTT:          m.TTT,
				Interruption: m.Interruption,
				DeviceGain:   deviceGain,
			})
			ue.Roamer.SetObs(ue.Trace, ue.Metrics)
			ue.Roamer.Start()
		}
		sh.UEs = append(sh.UEs, ue)
		f.UEs = append(f.UEs, ue)
		addr = addr.Next()
	}

	if o.profiler {
		// Wall-clock profiling is inherently non-deterministic; attach it to
		// shard 0's kernel as a representative sample.
		f.Profiler = obs.NewProfiler()
		f.Shards[0].K.SetProfiler(f.Profiler)
		for _, ue := range f.UEs {
			ue.Profiler = f.Profiler
		}
	}

	if f.Topo != nil {
		f.airUL = make([][]simtime.Time, ncells)
		f.airDL = make([][]simtime.Time, ncells)
		for c := range f.airUL {
			f.airUL[c] = make([]simtime.Time, ncells)
			f.airDL[c] = make([]simtime.Time, ncells)
		}
	}
	return f, nil
}

// Drive starts the scenario workload on every UE: immediately (in UE
// order) for UEs with no start offset, via a kernel timer otherwise. A nil
// workload is a no-op — the caller drives the UEs itself.
func (f *Fleet) Drive() {
	if f.scen.Workload == nil {
		return
	}
	for i, ue := range f.UEs {
		spec := f.scen.UEs[i]
		if spec.StartAt <= 0 {
			f.scen.Workload.Start(ue)
			continue
		}
		u := ue
		ue.K.At(simtime.Time(spec.StartAt), func() { f.scen.Workload.Start(u) })
	}
}

// RunTo advances the simulation to the horizon in parallel lockstep epochs
// (window = X2 latency) across the shards; results are byte-identical at
// any worker count. A one-cell fleet has no peer shard to exchange with,
// so its one kernel runs straight to the horizon with no barriers.
func (f *Fleet) RunTo(horizon time.Duration) {
	f.installControl()
	if f.Topo == nil {
		f.Shards[0].K.RunUntil(horizon)
		return
	}
	kernels := make([]*simtime.Kernel, len(f.Shards))
	for i, sh := range f.Shards {
		kernels[i] = sh.K
	}
	ls := simtime.NewLockstep(kernels, f.opts.workers)
	defer ls.Close()
	ls.Run(horizon, f.Topo.X2Latency, func(end simtime.Time) {
		f.exchange(end)
		f.deliverCrossShard(end)
	})
}

// now returns the fleet's virtual time (every shard's clock agrees
// between RunTo calls).
func (f *Fleet) now() simtime.Time { return f.Shards[0].K.Now() }

// CloseObs finalizes every UE's open observability state. Idempotent.
func (f *Fleet) CloseObs() {
	for _, ue := range f.UEs {
		ue.CloseObs()
	}
}

// Run builds the fleet, drives the workload, runs the kernel to the
// horizon, and analyzes every UE — the one-call entry point behind
// qoefleet and the fleet experiments.
func Run(scen Scenario, opts ...Option) (*Report, error) {
	f, err := Build(scen, opts...)
	if err != nil {
		return nil, err
	}
	f.Drive()
	f.RunTo(f.opts.horizon)
	f.CloseObs()
	return f.Report(), nil
}

// Report analyzes every UE's collected logs (cross-layer analyses fan out
// across goroutines; each is a pure function of its UE's session, so the
// fan-out cannot perturb results) and assembles the fleet report.
func (f *Fleet) Report() *Report {
	pending := make([]*analyzer.Pending, len(f.UEs))
	for i, ue := range f.UEs {
		pending[i] = ue.AnalyzeAsync(ue.Log)
	}
	now := f.now()
	r := &Report{
		Seed:     f.scen.Seed,
		Policy:   f.scen.Cell.Policy,
		Cells:    f.scen.cellCount(),
		Horizon:  now,
		Workload: "(caller-driven)",
	}
	if f.scen.Workload != nil {
		r.Workload = f.scen.Workload.Name()
	}
	for i, ue := range f.UEs {
		r.UEs = append(r.UEs, ueReport(ue, pending[i].Wait(), now))
	}
	r.aggregate()
	return r
}
