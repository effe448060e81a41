package radio

import (
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// HandoverEvent records one serving-cell change, emitted to radio monitors
// (the QxDM simulator logs them alongside RRC transitions, per §5 of the
// paper's handover analysis).
type HandoverEvent struct {
	At       simtime.Time
	From, To int // topology cell IDs
	// Reselection marks an idle-mode cell reselection: the UE re-camps with
	// no data-plane interruption. False means a connected-mode handover.
	Reselection bool
	// Interruption is the data-plane stall the handover imposed (detach →
	// target attach, including X2 forwarding). Zero for reselections.
	Interruption time.Duration
}

// HandoverMonitor is implemented by radio monitors that also want
// handover/reselection events (optional extension of Monitor).
type HandoverMonitor interface {
	Handover(HandoverEvent)
}

// The Roamer's measurement and handover settings, the same for every UE.
const (
	// measureInterval is the measurement report period.
	measureInterval = 200 * time.Millisecond
	// handoverHysteresis is the neighbor/serving gain ratio that arms a
	// connected-mode handover (A3-style event; 1.25 ≈ 1dB margin under
	// path-loss exponent 2.6).
	handoverHysteresis = 1.25
	// defaultTTT is the time-to-trigger the margin must hold when
	// NewRoamer is given none.
	defaultTTT = 480 * time.Millisecond
	// handoverInterruption is the control-plane break of a connected-mode
	// handover. The data plane stalls for it plus the topology's X2
	// forwarding latency.
	handoverInterruption = 50 * time.Millisecond
	// reselectHysteresis is the gain ratio for idle-mode reselection: idle
	// UEs re-camp eagerly, it costs nothing.
	reselectHysteresis = 1.1
)

// CellChange is one entry of a Roamer's serving-cell history.
type CellChange struct {
	At   simtime.Time
	Cell int
}

// Roamer drives one UE's mobility through a multi-cell topology: it ticks
// a measurement timer, updates the bearer's gain from the serving cell's
// path loss, and runs the handover state machine — A3-style measurement
// events with hysteresis and time-to-trigger in connected mode, instant
// reselection in idle. Handovers detach/attach between this kernel's local
// cell instances, so a Roamer never crosses shard boundaries.
type Roamer struct {
	b     *Bearer
	topo  *Topology
	cells []*Cell // local instance of every topology cell, indexed by site ID
	mover *Mover
	// ttt is the A3 time-to-trigger; deviceGain is the UE's static
	// link-quality multiplier composed with the position-dependent path
	// gain.
	ttt        time.Duration
	deviceGain float64

	serving   int
	candidate int // armed A3 candidate, -1 when none
	candSince simtime.Time
	inHO      bool

	handovers    int
	reselections int
	history      []CellChange

	tr       *obs.Trace
	hoSpan   obs.Span
	hoCtr    *obs.Counter
	reselCtr *obs.Counter

	stop func()
}

// NewRoamer wires a roamer for bearer b, already attached to
// cells[serving]. cells holds this kernel's local instance of every
// topology site, indexed by site ID. ttt is the handover time-to-trigger
// (0 = 480ms) and deviceGain the UE's link-quality multiplier (> 0).
func NewRoamer(b *Bearer, topo *Topology, cells []*Cell, mover *Mover, serving int, ttt time.Duration, deviceGain float64) *Roamer {
	if b.cell != cells[serving] {
		panic("radio: roamer bearer not attached to the serving cell")
	}
	if ttt <= 0 {
		ttt = defaultTTT
	}
	return &Roamer{
		b: b, topo: topo, cells: cells, mover: mover, ttt: ttt, deviceGain: deviceGain,
		serving:   serving,
		candidate: -1,
		history:   []CellChange{{At: 0, Cell: serving}},
	}
}

// SetObs attaches the trace bus and metrics registry (either may be nil).
func (r *Roamer) SetObs(tr *obs.Trace, reg *obs.Registry) {
	r.tr = tr
	r.hoCtr = reg.Counter("handovers")
	r.reselCtr = reg.Counter("reselections")
}

// Start begins the measurement ticker.
func (r *Roamer) Start() {
	if r.stop != nil {
		return
	}
	r.stop = r.b.Kernel().Ticker(measureInterval, r.tick)
}

// Serving returns the current serving cell ID.
func (r *Roamer) Serving() int { return r.serving }

// Handovers returns the number of connected-mode handovers completed.
func (r *Roamer) Handovers() int { return r.handovers }

// Reselections returns the number of idle-mode reselections.
func (r *Roamer) Reselections() int { return r.reselections }

// History returns the serving-cell timeline (first entry at time 0).
func (r *Roamer) History() []CellChange { return r.history }

// ServingAt returns the serving cell at virtual time t.
func (r *Roamer) ServingAt(t simtime.Time) int {
	cell := r.history[0].Cell
	for _, c := range r.history {
		if c.At > t {
			break
		}
		cell = c.Cell
	}
	return cell
}

// Close stops the ticker and ends any open handover span (call at the end
// of the run, before exporting traces).
func (r *Roamer) Close(at simtime.Time) {
	if r.stop != nil {
		r.stop()
		r.stop = nil
	}
	if r.inHO {
		r.hoSpan.EndAt(time.Duration(at))
		r.hoSpan = obs.Span{}
	}
}

// tick is one measurement report: refresh the serving gain from the current
// position, then evaluate reselection (idle) or the A3 handover rule
// (connected).
func (r *Roamer) tick() {
	if r.inHO {
		return
	}
	now := r.b.Kernel().Now()
	x, y := r.mover.PosAt(now)
	gServ := r.topo.Gain(r.serving, x, y)
	r.b.SetGain(gServ * r.deviceGain)

	best, gBest := r.topo.Strongest(x, y)
	if best == r.serving {
		r.candidate = -1
		return
	}
	if r.b.RRC().State() == r.b.Profile().Base {
		// Idle: re-camp on the strongest cell past a small margin, no
		// data-plane interruption.
		if gBest >= gServ*reselectHysteresis {
			r.reselect(now, best, gBest)
		}
		r.candidate = -1
		return
	}
	if gBest < gServ*handoverHysteresis {
		r.candidate = -1
		return
	}
	if r.candidate != best {
		r.candidate = best
		r.candSince = now
	}
	if now-r.candSince >= simtime.Time(r.ttt) {
		r.startHandover(best)
	}
}

func (r *Roamer) reselect(now simtime.Time, to int, gain float64) {
	from := r.serving
	r.b.BeginHandover()
	r.b.CompleteHandover(r.cells[to], gain*r.deviceGain)
	r.serving = to
	r.reselections++
	r.history = append(r.history, CellChange{At: now, Cell: to})
	r.reselCtr.Inc()
	if r.tr != nil {
		r.tr.Instant(obs.LayerRadio, "rrc:reselect", r.tr.Scope(),
			obs.Attr{Key: "from", Val: strconv.Itoa(from)},
			obs.Attr{Key: "to", Val: strconv.Itoa(to)})
	}
	r.b.emitHandover(HandoverEvent{At: now, From: from, To: to, Reselection: true})
}

func (r *Roamer) startHandover(to int) {
	r.inHO = true
	r.candidate = -1
	if r.tr != nil {
		r.hoSpan = r.tr.Start(obs.LayerRadio, "rrc:handover", r.tr.Scope(),
			obs.Attr{Key: "from", Val: strconv.Itoa(r.serving)},
			obs.Attr{Key: "to", Val: strconv.Itoa(to)})
	}
	r.b.BeginHandover()
	stall := handoverInterruption + r.topo.X2Latency
	r.b.Kernel().After(stall, func() { r.completeHandover(to, stall) })
}

func (r *Roamer) completeHandover(to int, stall time.Duration) {
	now := r.b.Kernel().Now()
	x, y := r.mover.PosAt(now)
	from := r.serving
	r.b.CompleteHandover(r.cells[to], r.topo.Gain(to, x, y)*r.deviceGain)
	r.serving = to
	r.handovers++
	r.history = append(r.history, CellChange{At: now, Cell: to})
	r.hoCtr.Inc()
	if r.tr != nil {
		r.hoSpan.End()
		r.hoSpan = obs.Span{}
	}
	r.b.emitHandover(HandoverEvent{At: now, From: from, To: to, Interruption: stall})
	r.inHO = false
}
