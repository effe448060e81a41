package experiments

import (
	"fmt"
	"time"

	"repro/internal/apps/youtube"
	"repro/internal/core/analyzer"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/testbed"
)

// Impairment-sweep defaults: the bursty-loss shape and the mid-playback
// outage window exercised by the robustness acceptance scenario.
const (
	impairAvgBurst    = 4.0
	impairOutageStart = 20 * time.Second
	impairStallGiveUp = 60 * time.Second
)

// impairOutcome is one impaired video playback, measured at every layer.
type impairOutcome struct {
	initialS  float64 // user-perceived initial loading (s)
	rebuffer  float64 // UI-derived rebuffering ratio
	rebuffers int     // distinct stall events
	observed  bool    // playback started at all
	retx      int     // TCP retransmissions across all flows
	energyJ   float64 // active (above-idle) radio energy
	drops     int     // packets the fault chains dropped
	outages   int     // bearer outages that actually occurred
	warnings  int     // analyzer data-quality warnings
}

// impairStart plays one video on a bed configured with the given fault
// plan, measuring the outcome across the UI, transport, and radio layers.
// Both collectors stay on: the point of the sweep is cross-layer
// attribution under impairment. A nonzero throttleBps adds carrier rate
// limiting downstream of the fault chain, keeping the playback buffer
// shallow so bearer outages surface at the UI layer.
//
// The simulation runs synchronously; the cross-layer analysis is launched
// asynchronously and the returned function waits for it. Callers start the
// next cell's simulation before collecting, pipelining sim N+1 over
// analysis N.
func impairStart(seed int64, plan *faults.Plan, throttleBps float64) func() impairOutcome {
	b := testbed.MustNew(testbed.Options{
		Seed:    seed,
		Faults:  plan,
		YouTube: youtube.Config{StallTimeout: impairStallGiveUp},
	})
	b.YouTube.Connect()
	b.K.RunUntil(2 * time.Second)
	if throttleBps > 0 {
		b.Throttle(throttleBps)
	}

	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.YouTube.Screen, log)
	c.Timeout = 30 * time.Minute
	c.Instrumentation().SetPollInterval(videoPollInterval)
	d := &controller.YouTubeDriver{C: c}

	var o impairOutcome
	id := videoSample(seed, 1)[0]
	d.SearchAndPlay(id[:1], int(id[1]-'0'), func(st controller.WatchStats) {
		o.observed = st.InitialLoading.Observed
		if o.observed {
			o.initialS = st.InitialLoading.RawLatency().Seconds()
			o.rebuffer = st.RebufferRatio()
			o.rebuffers = len(st.Rebuffers)
		}
	})
	b.K.RunUntil(b.K.Now() + 20*time.Minute)

	sess := b.Session(log)
	pending := analyzer.Analyze(sess)
	if b.FaultUL != nil {
		o.drops = b.FaultUL.Dropped() + b.FaultDL.Dropped()
	}
	o.outages = b.Net.Bearer.OutageCount()
	end := b.K.Now()
	return func() impairOutcome {
		xl := pending.Wait()
		for _, f := range xl.Flows.Flows {
			o.retx += f.Retransmissions
		}
		o.warnings = len(xl.Warnings)
		o.energyJ = power.Analyze(sess.Profile, sess.Radio, 0, end).ActiveJ()
		return o
	}
}

// RunImpairmentSweep reports QoE degradation as a function of injected
// network impairment: a Gilbert–Elliott loss-rate sweep and a mid-playback
// bearer-outage-duration sweep, each measured at the UI (initial loading,
// rebuffering), transport (TCP retransmissions), and radio (active energy)
// layers. This is not a paper figure: it is the robustness scenario the
// fault-injection subsystem exists for, demonstrating that every layer of
// the pipeline degrades gracefully instead of hanging or crashing.
func RunImpairmentSweep(seed int64, p Params) *Result {
	r := &Result{ID: "faults", Title: "QoE vs injected network impairment (loss and outage sweep)"}

	lossTbl := &metrics.Table{
		Title:   "GE burst loss sweep (avg burst 4, no outage)",
		Headers: []string{"Mean loss", "Init load", "Rebuf ratio", "Stalls", "TCP retx", "Chain drops", "Energy"},
	}
	losses := []float64{0, 0.01, 0.02, 0.05}
	if p.LossRate > 0 {
		losses = []float64{0, p.LossRate}
	}
	// Each cell's simulation overlaps the previous cell's analysis: the
	// starts run back-to-back, the collects drain in order.
	lossFinish := make([]func() impairOutcome, len(losses))
	for i, p := range losses {
		plan := &faults.Plan{}
		if p > 0 {
			ge := faults.GEForMeanLoss(p, impairAvgBurst)
			plan.GE = &ge
		}
		lossFinish[i] = impairStart(seed+int64(i), plan, 0)
	}
	for i, p := range losses {
		o := lossFinish[i]()
		lossTbl.AddRow(fmtPct(p), fmtS(o.initialS), fmt.Sprintf("%.3f", o.rebuffer),
			fmt.Sprintf("%d", o.rebuffers), fmt.Sprintf("%d", o.retx),
			fmt.Sprintf("%d", o.drops), fmtJ(o.energyJ))
		key := fmt.Sprintf("loss_%.0fpct", p*100)
		r.Set(key+"_init_s", o.initialS)
		r.Set(key+"_rebuf", o.rebuffer)
		r.Set(key+"_retx", float64(o.retx))
		r.Set(key+"_drops", float64(o.drops))
		r.Set(key+"_energy_j", o.energyJ)
	}

	outageTbl := &metrics.Table{
		Title:   "Bearer outage sweep (2% GE loss, 450 kbps throttle, outage at t=20s)",
		Headers: []string{"Outage", "Init load", "Rebuf ratio", "Stalls", "TCP retx", "Outages", "Energy"},
	}
	durations := []time.Duration{0, time.Second, 3 * time.Second, 5 * time.Second}
	outageFinish := make([]func() impairOutcome, len(durations))
	for i, dur := range durations {
		ge := faults.GEForMeanLoss(0.02, impairAvgBurst)
		plan := &faults.Plan{GE: &ge}
		if dur > 0 {
			plan.Outages = []faults.Outage{{Start: impairOutageStart, Duration: dur}}
		}
		outageFinish[i] = impairStart(seed+100+int64(i), plan, p.throttle(450e3))
	}
	for i, dur := range durations {
		o := outageFinish[i]()
		outageTbl.AddRow(fmt.Sprintf("%v", dur), fmtS(o.initialS),
			fmt.Sprintf("%.3f", o.rebuffer), fmt.Sprintf("%d", o.rebuffers),
			fmt.Sprintf("%d", o.retx), fmt.Sprintf("%d", o.outages), fmtJ(o.energyJ))
		key := fmt.Sprintf("outage_%ds", int(dur/time.Second))
		r.Set(key+"_init_s", o.initialS)
		r.Set(key+"_rebuf", o.rebuffer)
		r.Set(key+"_retx", float64(o.retx))
		r.Set(key+"_stalls", float64(o.rebuffers))
		r.Set(key+"_count", float64(o.outages))
	}

	r.Tables = []*metrics.Table{lossTbl, outageTbl}
	return r
}
