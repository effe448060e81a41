package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/qoemon"
	"repro/internal/qoestore"
)

// The pipeline workload: a seeded synthetic stream shaped like
// fleet.EmitReport output, pushed open loop through an Emitter and then
// closed loop through an HTTPIngestor into an in-process qoestore server,
// while a poller reads qoemon's /alerts back to back.
const (
	pipeCells          = 16
	pipeRate           = 4000.0 // open-loop events per second, sent in ticks
	pipeTick           = 64     // events per open-loop tick
	pipeOpenFrac       = 0.9    // share of the time budget spent in the open loop
	pipeSaturatePerSec = 5000   // closed-loop events per second of time budget
	pipeBatch          = 256    // events per closed-loop ingest call
	pipeSetups         = 3      // set-ups timed per untraced run
)

// The stream's dimensions and the objectives the monitor evaluates. Clean
// values stay below every threshold, so only the faulted cell alerts.
var (
	streamMetrics = []string{
		"pageload_s", "rebuffer_ratio", "mean_latency_s", "rrc_energy_j",
		"attrib_app_share", "attrib_radio_share", "attrib_transport_share", "attrib_server_share",
	}
	streamWorkloads = []string{"browse", "youtube", "facebook"}
	streamCohorts   = []string{"premium", "standard", "edge-of-cell", "roaming"}
	sloSpecs        = []string{"pageload_s p95 < 4", "rebuffer_ratio p95 < 0.05", "mean_latency_s p90 < 3"}
)

// swing cycles a clean QoE series through ±20% of its base value, one step
// per window. Any six consecutive windows hold every step, so the history's
// MAD is at least a tenth of the base and a clean window never exceeds the
// baseline check's median+5·MAD limit.
var swing = []float64{0.8, 0.9, 1.1, 1.2}

// streamWindow is the store's aggregation window. A round of the stream
// gives every series one event; event time advances so that a whole number
// of rounds fills each window and the run ends with at most maxWindows
// retained windows, whatever its length.
const (
	streamWindow = time.Minute
	maxWindows   = 100
)

// stream is one run's input: the open-loop events, then the closed-loop
// ones.
type stream struct {
	events    []qoestore.Event
	open      int
	faultCell string
	keys      []qoestore.Key // (cell, workload, cohort) of every series group
}

// makeStream generates the inputs for a run of the given length. From the
// middle of the open loop on, one seeded cell's QoE values are inflated.
func makeStream(seed int64, budget time.Duration) stream {
	rng := rand.New(rand.NewSource(seed))
	var st stream
	for c := 0; c < pipeCells; c++ {
		for _, w := range streamWorkloads {
			for _, h := range streamCohorts {
				st.keys = append(st.keys, qoestore.Key{Cell: fmt.Sprintf("cell%d", c), Workload: w, Cohort: h})
			}
		}
	}
	rng.Shuffle(len(st.keys), func(i, j int) { st.keys[i], st.keys[j] = st.keys[j], st.keys[i] })
	st.faultCell = fmt.Sprintf("cell%d", rng.Intn(pipeCells))

	// Per-series base values and the phase of each QoE series' ±20% swing.
	base := make([][]float64, len(st.keys))
	phase := make([][]int, len(st.keys))
	for i := range base {
		share := []float64{1 + rng.Float64(), 1 + rng.Float64(), 0.5 + rng.Float64(), 0.5 + rng.Float64()}
		sum := share[0] + share[1] + share[2] + share[3]
		base[i] = []float64{
			1 + rng.Float64(), 0.002 + 0.018*rng.Float64(), 0.3 + 1.2*rng.Float64(), 2 + 6*rng.Float64(),
			share[0] / sum, share[1] / sum, share[2] / sum, share[3] / sum,
		}
		phase[i] = []int{rng.Intn(4), rng.Intn(4), rng.Intn(4), rng.Intn(4)}
	}
	ticks := int(budget.Seconds() * pipeOpenFrac * pipeRate / pipeTick)
	if ticks < 1 {
		ticks = 1
	}
	st.open = ticks * pipeTick
	total := st.open + int(budget.Seconds()*pipeSaturatePerSec)
	faultFrom := st.open / 2
	perRound := len(st.keys) * len(streamMetrics)
	perWindow := perRound * ((total + perRound*maxWindows - 1) / (perRound * maxWindows))
	st.events = make([]qoestore.Event, total)
	for n := range st.events {
		win, off := n/perWindow, n%perWindow
		j := n % perRound
		g, m := j/len(streamMetrics), j%len(streamMetrics)
		k := st.keys[g]
		v := base[g][m]
		if m < 4 {
			v *= swing[(win+phase[g][m])%len(swing)]
		}
		if k.Cell == st.faultCell && n >= faultFrom {
			switch streamMetrics[m] {
			case "pageload_s", "mean_latency_s":
				v = 5*v + 3 // above both thresholds
			case "rebuffer_ratio":
				v += 0.2
			case "attrib_radio_share":
				v = 0.7
			case "attrib_app_share", "attrib_transport_share", "attrib_server_share":
				v = 0.1
			}
		}
		st.events[n] = qoestore.Event{
			At:   time.Duration(win)*streamWindow + time.Duration(off)*(streamWindow/time.Duration(perWindow)),
			Cell: k.Cell, Workload: k.Workload, Cohort: k.Cohort,
			Metric: streamMetrics[m], Value: v,
		}
	}
	for n := st.open; n < total; n++ {
		st.events[n].Source = "bench-saturate"
		st.events[n].Seq = uint64(n - st.open + 1)
	}
	return st
}

// expectedAlerts is the set of (SLO, series) that must alert once the
// stream has drained: every objective on every series of the faulted cell.
func (st *stream) expectedAlerts(slos []qoemon.SLO) map[string]bool {
	want := map[string]bool{}
	for _, slo := range slos {
		for _, k := range st.keys {
			if k.Cell == st.faultCell {
				k.Metric = slo.Metric
				want[alertID(slo.Name, k)] = true
			}
		}
	}
	return want
}

func alertID(slo string, k qoestore.Key) string {
	return fmt.Sprintf("%s %s/%s/%s/%s", slo, k.Cell, k.Workload, k.Cohort, k.Metric)
}

// Trace lanes: the goroutines pipeline spans run on.
const (
	laneMain = 1 + iota
	laneIngestServer
	laneAlertsServer
	lanePoller
	laneFlusher
)

// handlerClock times a handler on the server side in a traced run: its
// busy time, and a span per request.
type handlerClock struct {
	tr   *tracer
	name string
	lane int
	mu   sync.Mutex
	busy time.Duration
}

func (c *handlerClock) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := c.tr.begin(c.name, -1, -1, c.lane)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		c.tr.end(sp)
		c.mu.Lock()
		c.busy += d
		c.mu.Unlock()
	})
}

func (c *handlerClock) busyTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.busy
}

// pipeServer is the system under test: a store with its WAL in a fresh
// temporary directory (fsync on, the production default), the monitor, and
// both HTTP APIs on one loopback listener.
type pipeServer struct {
	dir    string
	store  *qoestore.Store
	mon    *qoemon.Monitor
	hs     *http.Server
	url    string
	served chan error
	// ingest and evaluate time /ingest and /alerts on the server side.
	ingest, evaluate *handlerClock
}

func startPipeline(slos []qoemon.SLO, tr *tracer) (ps *pipeServer, err error) {
	ps = &pipeServer{
		ingest:   &handlerClock{tr: tr, name: "qoestore.ingest", lane: laneIngestServer},
		evaluate: &handlerClock{tr: tr, name: "qoemon.evaluate", lane: laneAlertsServer},
	}
	if ps.dir, err = os.MkdirTemp("", "qoebench-wal-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = ps.close() // the set-up error is the one to report
		}
	}()
	sp := tr.begin("qoestore.Open", -1, -1, laneMain)
	ps.store, err = qoestore.Open(ps.dir, qoestore.Config{Window: streamWindow})
	tr.end(sp)
	if err != nil {
		return ps, err
	}
	sp = tr.begin("qoemon.New", -1, -1, laneMain)
	ps.mon, err = qoemon.New(ps.store, qoemon.Config{SLOs: slos})
	tr.end(sp)
	if err != nil {
		return ps, err
	}
	monMux := http.NewServeMux()
	ps.mon.Mount(monMux)
	ingest, alerts := qoestore.NewServer(ps.store, qoestore.ServerConfig{}).Handler(), http.Handler(monMux)
	if tr != nil {
		ingest, alerts = ps.ingest.wrap(ingest), ps.evaluate.wrap(alerts)
	}
	mux := http.NewServeMux()
	mux.Handle("/", ingest)
	mux.Handle("GET /alerts", alerts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ps, err
	}
	ps.url = "http://" + ln.Addr().String()
	ps.hs = &http.Server{Handler: mux}
	ps.served = make(chan error, 1)
	go func() { ps.served <- ps.hs.Serve(ln) }()
	return ps, nil
}

// close stops the server, waits for it, closes the store and removes the
// WAL. Safe on a partly started pipeline.
func (ps *pipeServer) close() error {
	var errs []error
	if ps.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, ps.hs.Shutdown(ctx))
		cancel()
		if err := <-ps.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if ps.store != nil {
		errs = append(errs, ps.store.Close())
	}
	errs = append(errs, os.RemoveAll(ps.dir))
	return errors.Join(errs...)
}

// oneConnClient is an HTTP client that keeps to a single connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// tracedIngestor spans every batch the emitter ships.
type tracedIngestor struct {
	inner qoestore.Ingestor
	tr    *tracer
}

func (t tracedIngestor) Ingest(events []qoestore.Event) (qoestore.IngestReceipt, error) {
	group := int64(-1)
	if n := len(events); n > 0 {
		group = int64(events[n-1].Seq-1) / pipeTick
	}
	sp := t.tr.begin("HTTPIngestor.Ingest", group, -1, laneFlusher)
	defer t.tr.end(sp)
	return t.inner.Ingest(events)
}

// poll is one /alerts read: the emitter's delivered count before the
// request went out, and when the response had been read.
type poll struct {
	delivered uint64
	end       time.Time
}

// pipeRun is what one drive of the pipeline measured.
type pipeRun struct {
	ticks       int
	emitToAlert []float64 // ms, one per open-loop tick
	lateMax     time.Duration
	interval    time.Duration
	saturated   int
	// satCalls is each saturation ingest call's wall time per event, in
	// seconds.
	satCalls  []float64
	wall      time.Duration // open loop, drain and saturation
	polls     int
	emitter   qoestore.EmitterStats
	satFailed int
	store     qoestore.StoreStats
	series    int
	alerts    int
	body      []byte
	problems  []string
	peakRSS   float64 // MB, over the drive
}

func (run *pipeRun) problem(format string, args ...any) {
	run.problems = append(run.problems, fmt.Sprintf(format, args...))
}

// drive pushes the stream through a started pipeline: the open loop, a
// drain, the closed-loop saturation phase, and a final /alerts read.
func drive(ps *pipeServer, st stream, tr *tracer) *pipeRun {
	run := &pipeRun{interval: time.Duration(pipeTick / pipeRate * float64(time.Second))}
	ingestClient, pollClient := oneConnClient(), oneConnClient()
	defer ingestClient.CloseIdleConnections()
	defer pollClient.CloseIdleConnections()
	var dst qoestore.Ingestor = &qoestore.HTTPIngestor{BaseURL: ps.url, Client: ingestClient}
	if tr != nil {
		dst = tracedIngestor{inner: dst, tr: tr}
	}
	em, err := qoestore.NewEmitter(dst, qoestore.EmitterConfig{Source: "bench-open"})
	if err != nil {
		run.problem("emitter: %v", err)
		return run
	}
	defer em.Close()

	// The poller reads /alerts back to back until stopped. covered closes
	// once a poll has started after every open-loop event was delivered.
	var polls []poll
	var target atomic.Uint64
	covered, stop := make(chan struct{}), make(chan struct{})
	var pollErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		closed := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := em.Stats().Delivered
			group := int64(d)/pipeTick - 1
			sp := tr.begin("GET /alerts", group, -1, lanePoller)
			_, err := getBody(pollClient, ps.url+"/alerts")
			tr.end(sp)
			if err != nil {
				pollErr = err
				return
			}
			polls = append(polls, poll{delivered: d, end: time.Now()})
			if t := target.Load(); !closed && t > 0 && d >= t {
				close(covered)
				closed = true
			}
		}
	}()

	start := time.Now()
	run.ticks = st.open / pipeTick
	due := make([]time.Time, run.ticks)
	for k := range due {
		due[k] = start.Add(time.Duration(k) * run.interval)
		if d := time.Until(due[k]); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(due[k]); late > run.lateMax {
			run.lateMax = late
		}
		sp := tr.begin("Emitter.Emit", int64(k), -1, laneMain)
		for _, ev := range st.events[k*pipeTick : (k+1)*pipeTick] {
			em.Emit(ev)
		}
		tr.end(sp)
	}
	em.Close()
	run.emitter = em.Stats()
	target.Store(run.emitter.Delivered)
	if run.emitter.Delivered > 0 {
		select {
		case <-covered:
		case <-time.After(30 * time.Second):
			run.problem("no /alerts poll covered the delivered events within 30s")
		}
	}

	// Closed loop: one client pushes the rest synchronously.
	sat := st.events[st.open:]
	ing := &qoestore.HTTPIngestor{BaseURL: ps.url, Client: ingestClient}
	for off := 0; off < len(sat); off += pipeBatch {
		b := sat[off:min(off+pipeBatch, len(sat))]
		sp := tr.begin("HTTPIngestor.Ingest", -1, -1, laneMain)
		t0 := time.Now()
		rec, err := ing.Ingest(b)
		run.satCalls = append(run.satCalls, time.Since(t0).Seconds()/float64(len(b)))
		tr.end(sp)
		switch {
		case err != nil:
			run.satFailed += len(b)
		case rec.Shed > 0:
			run.satFailed += rec.Shed
		}
		run.saturated += len(b)
	}
	close(stop)
	wg.Wait()
	run.wall = time.Since(start)
	if pollErr != nil {
		run.problem("poll /alerts: %v", pollErr)
	}
	run.polls = len(polls)

	// Emit-to-alert: from tick k's scheduled send time to the end of the
	// first poll that started after the emitter had delivered the tick.
	j := 0
	for k := range due {
		need := uint64((k + 1) * pipeTick)
		for j < len(polls) && polls[j].delivered < need {
			j++
		}
		if j == len(polls) {
			break
		}
		run.emitToAlert = append(run.emitToAlert, ms(polls[j].end.Sub(due[k])))
	}

	run.body, err = getBody(pollClient, ps.url+"/alerts")
	if err != nil {
		run.problem("final /alerts: %v", err)
	}
	run.store = ps.store.Stats()
	ev := ps.mon.Evaluate()
	run.series, run.alerts = len(ev.Statuses), len(ev.Alerts)
	return run
}

func getBody(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}

// check records the run's operations and verifies them: every open-loop
// event delivered with nothing dropped or shed, every closed-loop event
// accepted, and the drained /alerts naming exactly the faulted cell's
// series.
func (run *pipeRun) check(r *result, st stream, slos []qoemon.SLO) {
	em := run.emitter
	r.Attempted += st.open + run.saturated + 1
	lost := uint64(st.open) - min(em.Delivered, uint64(st.open))
	r.Failed += int(max(lost, em.DroppedQ+em.DroppedRe+em.Shed)) + run.satFailed
	if em.Enqueued != uint64(st.open) || em.Delivered != em.Enqueued || em.DroppedQ+em.DroppedRe+em.Shed > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("emitter delivered %d of %d events (queue drops %d, retry drops %d, shed %d)",
			em.Delivered, st.open, em.DroppedQ, em.DroppedRe, em.Shed))
	}
	if run.satFailed > 0 || run.store.Shed > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("saturation lost %d events; store shed %d", run.satFailed, run.store.Shed))
	}
	if len(run.emitToAlert) != run.ticks {
		r.Problems = append(r.Problems, fmt.Sprintf("only %d of %d ticks reached an /alerts read", len(run.emitToAlert), run.ticks))
	}
	r.Problems = append(r.Problems, run.problems...)
	var got struct {
		Alerts []struct {
			SLO string       `json:"slo"`
			Key qoestore.Key `json:"key"`
		} `json:"alerts"`
	}
	want := st.expectedAlerts(slos)
	if err := json.Unmarshal(run.body, &got); err != nil {
		r.fail("drained /alerts is not JSON: %v", err)
		return
	}
	seen := map[string]bool{}
	for _, a := range got.Alerts {
		seen[alertID(a.SLO, a.Key)] = true
	}
	for id := range want {
		if !seen[id] {
			r.fail("drained /alerts misses %s", id)
			return
		}
	}
	for id := range seen {
		if !want[id] {
			r.fail("drained /alerts fires on %s, outside the faulted cell", id)
			return
		}
	}
}

func parseSLOs() ([]qoemon.SLO, error) {
	slos := make([]qoemon.SLO, len(sloSpecs))
	for i, s := range sloSpecs {
		var err error
		if slos[i], err = qoemon.ParseSLO(s); err != nil {
			return nil, err
		}
	}
	return slos, nil
}

// setUp generates the stream and starts the pipeline n times, timing each
// set-up, and keeps the last one running.
func setUp(seed int64, budget time.Duration, slos []qoemon.SLO, tr *tracer, n int) (ps *pipeServer, st stream, secs []float64, err error) {
	for i := 0; i < n; i++ {
		if ps != nil {
			if err := ps.close(); err != nil {
				return nil, st, secs, err
			}
		}
		t0 := time.Now()
		st = makeStream(seed, budget)
		if ps, err = startPipeline(slos, tr); err != nil {
			return nil, st, secs, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return ps, st, secs, nil
}

// pipeOnce sets up and drives the pipeline once and checks its outputs
// into r. rt, when set, accumulates the Go runtime counters of the drive.
func pipeOnce(r *result, rt *rtDelta, seed int64, budget time.Duration, tr *tracer, setups int) (*pipeRun, *pipeServer, []float64, bool) {
	slos, err := parseSLOs()
	if err != nil {
		r.fail("SLOs: %v", err)
		return nil, nil, nil, false
	}
	ps, st, secs, err := setUp(seed, budget, slos, tr, setups)
	if err != nil {
		r.fail("set-up: %v", err)
		return nil, nil, nil, false
	}
	before := readRT()
	resetPeakRSS()
	run := drive(ps, st, tr)
	run.peakRSS = opPeakRSSMB()
	if rt != nil {
		rt.add(before, readRT())
		rt.ops += run.ticks
	}
	if err := ps.close(); err != nil {
		r.Problems = append(r.Problems, fmt.Sprintf("shut down: %v", err))
	}
	run.check(r, st, slos)
	return run, ps, secs, true
}

func alertsDigest(run *pipeRun) string { return fmt.Sprintf("%x", sha256.Sum256(run.body)) }

// runPipeline is the untraced run.
func runPipeline(cfg runConfig) *result {
	r := newResult()
	run, _, setups, ok := pipeOnce(r, nil, cfg.seed, cfg.seconds, nil, pipeSetups)
	if !ok {
		return r
	}
	r.Digest, r.DigestOps = alertsDigest(run), 1
	r.Values["setup_s"] = median(setups)
	r.Values["op_ms_p50"] = median(run.emitToAlert)
	r.Values["peak_rss_mb"] = run.peakRSS
	return r
}

// tracePipeline drives the pipeline twice on the same inputs: untraced, the
// reference for the digest and the tracing overhead, then traced for the
// per-layer metrics. Each drive takes the whole time budget, because the
// budget sets the stream's length and so the drained /alerts body.
func tracePipeline(cfg runConfig, tr *tracer) *result {
	r := newResult()
	var rt rtDelta
	base, _, _, ok := pipeOnce(r, &rt, cfg.seed, cfg.seconds, nil, 1)
	if !ok {
		return r
	}
	run, ps, _, ok := pipeOnce(r, nil, cfg.seed, cfg.seconds, tr, 1)
	if !ok {
		return r
	}
	r.Digest, r.DigestOps = alertsDigest(base), 1
	if alertsDigest(run) != r.Digest {
		r.fail("traced /alerts body differs from the untraced one")
	}
	rt.report(r)
	v := r.Values
	v["bench.op_ms_p95"] = quantile(base.emitToAlert, 0.95)
	// Events per second at the median ingest call: one fsync stall on the
	// shared disk moves a total-time rate, not a median.
	v["bench.throughput_per_s"] = ratio(1, median(base.satCalls))
	v["bench.traced_op_ms"] = median(run.emitToAlert)
	v["bench.trace_overhead_ratio"] = ratio(median(run.emitToAlert), median(base.emitToAlert))
	v["bench.generator_late_ticks"] = ratio(float64(run.lateMax), float64(run.interval))
	v["qoestore.ingest_share"] = ratio(float64(ps.ingest.busyTime()), float64(run.wall))
	v["qoemon.evaluate_share"] = ratio(float64(ps.evaluate.busyTime()), float64(run.wall))
	v["qoestore.acked"] = float64(run.store.Acked)
	v["qoestore.rejected"] = float64(run.store.Rejected)
	v["qoestore.shed"] = float64(run.store.Shed)
	v["qoestore.degraded_transitions"] = float64(run.store.Degraded)
	v["qoestore.emitter_delivered_ratio"] = ratio(float64(run.emitter.Delivered), float64(run.emitter.Enqueued))
	v["qoestore.emitter_retries"] = float64(run.emitter.Retries)
	v["qoemon.evaluations"] = float64(run.polls)
	v["qoemon.series"] = float64(run.series)
	v["qoemon.alerts"] = float64(run.alerts)
	r.fillPerLayer()
	return r
}
