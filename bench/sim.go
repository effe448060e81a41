package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/radio"
)

// simSpec is the shape of one simulation workload: every op builds a fresh
// fleet from it, drives the browse workload to the horizon and renders the
// cross-layer report.
type simSpec struct {
	ues int
	// cells > 1 shards the fleet over a cell grid, one kernel per cell,
	// advanced by 2 lockstep workers.
	cells       int
	profile     func() *radio.Profile
	pages       int
	think       time.Duration
	horizon     time.Duration
	collectors  bool // pcap and QxDM on
	throttleBps float64
	remedy      bool
	// warmup ops run untimed before measuring; digestOps is both the
	// minimum number of measured ops and how many the digest covers.
	warmup, digestOps int
	// seedOf gives op i its scenario seed.
	seedOf func(seed int64, i int) int64
}

// stormStagger spaces the arrival of each successive wave of UEs, one UE
// per cell per wave.
const stormStagger = 1500 * time.Millisecond

// traceChunk is the virtual-time step of RunTo in a traced op. It is a
// multiple of the 10 ms X2 latency, so lockstep epochs and barriers stay
// where an unchunked run puts them.
const traceChunk = 10 * time.Second

// lockstepWorkers is the worker count of every sharded run: the host has
// 2 cores.
const lockstepWorkers = 2

// sessionSpec is session-3g: the paper's loop of driving one app on one
// 3G phone, capturing pcap and QxDM, and diagnosing it across layers.
func sessionSpec() simSpec {
	return simSpec{
		ues: 1, cells: 1, profile: radio.Profile3G,
		pages: 10, think: 5 * time.Second, horizon: 10 * time.Minute,
		collectors: true, warmup: 5, digestOps: 50,
		seedOf: func(seed int64, i int) int64 { return seed*1000 + int64(i) },
	}
}

// stormSpec is a staggered browse storm over a cell grid, collectors off.
// With remedy, every downlink is throttled to 40 kbit/s and the
// remediation controller runs.
func stormSpec(ues, cells int, remedy bool) simSpec {
	s := simSpec{
		ues: ues, cells: cells, profile: radio.ProfileLTE,
		pages: 2, think: 6 * time.Second,
		horizon: 2*time.Minute + time.Duration(ues/cells)*stormStagger,
		// The first repetition in a process also grows the heap to the
		// fleet's size; one untimed repetition keeps that out of the
		// per-repetition times.
		warmup: 1, digestOps: 1,
		seedOf: func(seed int64, i int) int64 { return seed + int64(i) },
	}
	if remedy {
		s.throttleBps = 40e3
		s.remedy = true
	}
	return s
}

func (s simSpec) sharded() bool { return s.cells > 1 }

func (s simSpec) scenario(seed int64, collectors bool) fleet.Scenario {
	ues := fleet.UniformUEs(s.ues)
	for i := range ues {
		if s.sharded() {
			ues[i].StartAt = time.Duration(i/s.cells) * stormStagger
		}
		ues[i].ThrottleBps = s.throttleBps
		ues[i].DisablePcap = !collectors
		ues[i].DisableQxDM = !collectors
	}
	scen := fleet.Scenario{
		Seed:     seed,
		Cell:     fleet.CellSpec{Profile: s.profile(), Policy: radio.SchedRoundRobin},
		UEs:      ues,
		Workload: fleet.BrowseWorkload{Pages: s.pages, ThinkTime: s.think},
	}
	if s.sharded() {
		scen.Topology = &fleet.TopologySpec{Cells: s.cells}
	}
	if s.remedy {
		scen.Remedy = &fleet.RemedySpec{}
	}
	return scen
}

// simOpts varies how one op runs without changing what it simulates.
type simOpts struct {
	workers    int
	collectors bool
	profile    bool
	chunk      time.Duration // RunTo step; 0 runs to the horizon at once
}

func (s simSpec) baseOpts() simOpts {
	return simOpts{workers: lockstepWorkers, collectors: s.collectors}
}

// simOp is one finished op. op is the Drive→Report wall time; Build is set
// up and timed on its own.
type simOp struct {
	build, op, runTo time.Duration
	peakRSS          float64 // MB, set by measured
	f                *fleet.Fleet
	rep              *fleet.Report
	digest           [32]byte
}

// events returns the kernel events processed in total and on the profiled
// kernel (shard 0 of a sharded fleet), and the busiest shard's count over
// the mean.
func (o *simOp) events() (total, first uint64, imbalance float64) {
	if o.f.K != nil {
		n := o.f.K.Processed()
		return n, n, 1
	}
	var most uint64
	for _, sh := range o.f.Shards {
		n := sh.K.Processed()
		total += n
		if n > most {
			most = n
		}
	}
	mean := float64(total) / float64(len(o.f.Shards))
	return total, o.f.Shards[0].K.Processed(), ratio(float64(most), mean)
}

// runOp runs one op. With a tracer, every fleet call gets a span under
// parent.
func (s simSpec) runOp(seed int64, o simOpts, tr *tracer, parent int, group int64) (out simOp, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	call := func(name string, fn func()) {
		h := tr.begin(name, group, parent, 1)
		fn()
		tr.end(h)
	}
	opts := []fleet.Option{fleet.WithHorizon(s.horizon), fleet.WithWorkers(o.workers)}
	if o.profile {
		opts = append(opts, fleet.WithProfiler())
	}
	t0 := time.Now()
	var f *fleet.Fleet
	call("fleet.Build", func() { f, err = fleet.Build(s.scenario(seed, o.collectors), opts...) })
	if err != nil {
		return out, fmt.Errorf("build: %w", err)
	}
	t1 := time.Now()
	call("fleet.Drive", f.Drive)
	step := o.chunk
	if step <= 0 {
		step = s.horizon
	}
	r0 := time.Now()
	for at := step; ; at += step {
		if at > s.horizon {
			at = s.horizon
		}
		call("fleet.RunTo", func() { f.RunTo(at) })
		if at == s.horizon {
			break
		}
	}
	out.runTo = time.Since(r0)
	call("fleet.CloseObs", f.CloseObs)
	var rep *fleet.Report
	call("fleet.Report", func() { rep = f.Report() })
	t2 := time.Now()
	out.build, out.op = t1.Sub(t0), t2.Sub(t1)
	out.f, out.rep = f, rep
	out.digest = sha256.Sum256([]byte(rep.Render()))
	return out, nil
}

// check verifies an op's report: every UE of an unthrottled fleet observes
// every page load, and a remediated fleet reports an intervention.
func (s simSpec) check(o simOp) error {
	if len(o.rep.UEs) != s.ues {
		return fmt.Errorf("report has %d UEs, want %d", len(o.rep.UEs), s.ues)
	}
	if s.remedy {
		// Throttled page loads may legitimately outlast the horizon.
		if interventions(o.rep) == 0 {
			return errors.New("remediated fleet reported no intervention")
		}
		return nil
	}
	for _, u := range o.rep.UEs {
		if u.Actions != s.pages || u.Observed != s.pages {
			return fmt.Errorf("%s observed %d of %d page loads (%d actions)", u.Name, u.Observed, s.pages, u.Actions)
		}
	}
	return nil
}

func interventions(rep *fleet.Report) int {
	n := 0
	for _, u := range rep.UEs {
		n += len(u.Interventions)
	}
	return n
}

// measured runs one untraced, checked op and records its failure. rt, when
// set, accumulates the op's Go runtime counters.
func (s simSpec) measured(r *result, rt *rtDelta, i int, seed int64, o simOpts) (simOp, bool) {
	// Start each op from a collected heap, as a fresh process would, so one
	// op's garbage does not land on the next; this stays outside every
	// timed interval.
	runtime.GC()
	resetPeakRSS()
	r.Attempted++
	before := readRT()
	op, err := s.runOp(seed, o, nil, -1, int64(i))
	op.peakRSS = opPeakRSSMB()
	if rt != nil {
		rt.add(before, readRT())
		rt.ops++
	}
	if err == nil {
		err = s.check(op)
	}
	if err != nil {
		r.fail("op %d (seed %d): %v", i, seed, err)
		return op, false
	}
	return op, true
}

// warm runs the untimed warm-up ops. Their errors are dropped: an op that
// fails here fails again when measured.
func (s simSpec) warm(seed int64) {
	for i := 0; i < s.warmup; i++ {
		_, _ = s.runOp(s.seedOf(seed, i), s.baseOpts(), nil, -1, 0)
	}
}

func finishDigest(r *result, h hash.Hash, n int) {
	r.Digest = fmt.Sprintf("%x", h.Sum(nil))
	r.DigestOps = n
}

// runSim is the untraced run: ops back to back from one client until the
// time budget is spent, then the end-to-end metrics.
func runSim(s simSpec, cfg runConfig) *result {
	r := newResult()
	s.warm(cfg.seed)
	var setup, opMs, rss []float64
	h, hashed := sha256.New(), 0
	start := time.Now()
	for i := 0; i < s.digestOps || time.Since(start) < cfg.seconds; i++ {
		op, ok := s.measured(r, nil, i, s.seedOf(cfg.seed, i), s.baseOpts())
		if !ok {
			continue
		}
		setup = append(setup, op.build.Seconds())
		opMs = append(opMs, ms(op.op))
		rss = append(rss, op.peakRSS)
		if i < s.digestOps {
			h.Write(op.digest[:])
			hashed++
		}
	}
	finishDigest(r, h, hashed)
	r.Values["setup_s"] = median(setup)
	r.Values["op_ms_p50"] = median(opMs)
	r.Values["peak_rss_mb"] = median(rss)
	return r
}

// traceSim is the traced run. Each iteration runs one seed several ways:
// untraced as the reference (its digest and wall time), at 1 lockstep
// worker for the speedup (storms), with collectors off for their overhead
// (session-3g), and finally profiled with spans around every fleet call.
// All must render the same report.
func traceSim(s simSpec, cfg runConfig, tr *tracer) *result {
	r := newResult()
	s.warm(cfg.seed)
	cb := newCallbackStats()
	var rt rtDelta
	var baseMs, tracedMs []float64
	var baseWall, offWall, baseRunTo, w1RunTo float64
	var events, imbalance, pcapN, pdus, warnings, ivs float64
	var dlRatio, ulRatio float64
	var tracedEvents, tracedFirst, actions, epochs float64
	traced := 0
	h, hashed := sha256.New(), 0
	name := "repetition"
	if !s.sharded() {
		name = "session"
	}
	start := time.Now()
	for i := 0; i < s.digestOps || time.Since(start) < cfg.seconds; i++ {
		seed := s.seedOf(cfg.seed, i)
		base, ok := s.measured(r, &rt, i, seed, s.baseOpts())
		if !ok {
			continue
		}
		if i < s.digestOps {
			h.Write(base.digest[:])
			hashed++
		}
		n, _, imb := base.events()
		events += float64(n)
		imbalance += imb
		baseMs = append(baseMs, ms(base.op))
		baseWall += base.op.Seconds()
		baseRunTo += base.runTo.Seconds()
		for _, ue := range base.f.UEs {
			if ue.Capture != nil {
				pcapN += float64(ue.Capture.Len())
			}
			if ue.QxDM != nil {
				pdus += float64(len(ue.QxDM.Log().PDUs))
			}
		}
		for _, u := range base.rep.UEs {
			warnings += float64(u.Warnings)
		}
		ivs += float64(interventions(base.rep))
		base.f, base.rep = nil, nil // let the variants below reuse the heap

		same := func(what string, o simOp) {
			if o.digest != base.digest {
				r.fail("op %d (seed %d): %s report differs from the untraced one", i, seed, what)
			}
		}
		if s.sharded() {
			o := s.baseOpts()
			o.workers = 1
			if w1, ok := s.measured(r, nil, i, seed, o); ok {
				same("1-worker", w1)
				w1RunTo += w1.runTo.Seconds()
			}
		}
		if s.collectors {
			o := s.baseOpts()
			o.collectors = false
			if off, ok := s.measured(r, nil, i, seed, o); ok {
				offWall += off.op.Seconds()
			}
		}

		runtime.GC()
		r.Attempted++
		o := s.baseOpts()
		o.profile, o.chunk = true, traceChunk
		root := tr.begin(name, int64(i), -1, 1)
		t, err := s.runOp(seed, o, tr, root, int64(i))
		if err == nil && !s.sharded() {
			// Run the analysis Report just did once more, as its two
			// public calls, so each gets its own span.
			ue := t.f.UEs[0]
			sp := tr.begin("UE.Analyze", int64(i), root, 1)
			cl := ue.Analyze(ue.Log)
			tr.end(sp)
			sp = tr.begin("CrossLayer.Attributions", int64(i), root, 1)
			cl.Attributions()
			tr.end(sp)
			dlRatio += cl.DLMap.Ratio()
			ulRatio += cl.ULMap.Ratio()
		}
		tr.end(root)
		if err != nil {
			r.fail("traced op %d (seed %d): %v", i, seed, err)
			continue
		}
		same("traced", t)
		traced++
		tracedMs = append(tracedMs, ms(t.op))
		cb.add(t.f.Profiler)
		total, first, _ := t.events()
		tracedEvents += float64(total)
		tracedFirst += float64(first)
		for j, u := range t.rep.UEs {
			if t.f.UEs[j].Shard == 0 {
				actions += float64(u.Actions)
			}
		}
		if t.f.Topo != nil {
			epochs += math.Ceil(float64(s.horizon) / float64(t.f.Topo.X2Latency))
		}
	}
	finishDigest(r, h, hashed)

	ops := float64(rt.ops)
	nt := float64(traced)
	rt.report(r)
	v := r.Values
	v["bench.op_ms_p95"] = quantile(baseMs, 0.95)
	// UE-virtual-seconds per wall second.
	v["bench.throughput_per_s"] = ratio(float64(len(baseMs)*s.ues)*s.horizon.Seconds(), baseWall)
	v["bench.traced_op_ms"] = median(tracedMs)
	v["bench.trace_overhead_ratio"] = ratio(median(tracedMs), median(baseMs))
	v["simtime.events_per_op"] = ratio(events, ops)
	v["simtime.events_per_s"] = ratio(events, baseRunTo)
	v["simtime.shard_event_imbalance"] = ratio(imbalance, ops)
	v["simtime.epochs_per_op"] = ratio(epochs, nt)
	v["simtime.lockstep_speedup_w2"] = ratio(w1RunTo, baseRunTo)
	v["collectors.pcap_packets_per_op"] = ratio(pcapN, ops)
	v["collectors.qxdm_pdus_per_op"] = ratio(pdus, ops)
	v["collectors.overhead_ratio"] = ratio(baseWall, offWall)
	v["analyzer.warnings_per_op"] = ratio(warnings, ops)
	v["analyzer.dl_mapped_ratio"] = ratio(dlRatio, nt)
	v["analyzer.ul_mapped_ratio"] = ratio(ulRatio, nt)
	v["remedy.interventions_per_op"] = ratio(ivs, ops)
	v["remedy.interventions_per_ue"] = ratio(ivs, ops*float64(s.ues))

	// Callback shares are of the profiled kernel's callback time.
	cbTotal := float64(cb.total)
	for _, l := range []string{"radio", "netsim", "uisim"} {
		v[l+".callback_share"] = ratio(float64(cb.wall[l]), cbTotal)
	}
	v["apps.serversim_callback_share"] = ratio(float64(cb.wall["apps.serversim"]), cbTotal)
	v["apps.client_callback_share"] = ratio(float64(cb.wall["apps.client"]), cbTotal)
	v["radio.callbacks_per_op"] = ratio(float64(cb.count["radio"]), nt)
	v["netsim.callbacks_per_op"] = ratio(float64(cb.count["netsim"]), nt)
	v["uisim.parses_per_op"] = ratio(float64(cb.parses), nt)
	v["uisim.parses_per_action"] = ratio(float64(cb.parses), actions)

	// RunTo wall time not spent in profiled callbacks: kernel dispatch,
	// lockstep barriers, control hooks and the profiler itself. Exact on a
	// single kernel; a sharded fleet profiles shard 0 only, so the callback
	// time of all shards is extrapolated from it by event count and divided
	// among the workers.
	var runTo float64
	for _, d := range tr.durations("fleet.RunTo") {
		runTo += float64(d)
	}
	cbAll := cbTotal
	if s.sharded() {
		cbAll = cbTotal * ratio(tracedEvents, tracedFirst) / lockstepWorkers
	}
	v["simtime.residual_share"] = ratio(runTo-cbAll, runTo)

	// Shares of the traced ops' wall time, by each call's self time.
	self := tr.selfTimes()
	var rootTotal float64
	for _, d := range tr.durations(name) {
		rootTotal += float64(d)
	}
	share := func(call string) float64 { return ratio(float64(self[call]), rootTotal) }
	v["fleet.build_share"] = share("fleet.Build")
	v["fleet.runto_share"] = share("fleet.RunTo")
	v["analyzer.report_share"] = share("fleet.Report")
	v["analyzer.crosslayer_share"] = share("UE.Analyze")
	v["analyzer.attribute_share"] = share("CrossLayer.Attributions")
	r.fillPerLayer()
	return r
}
