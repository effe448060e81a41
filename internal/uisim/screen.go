package uisim

import (
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// FramePeriod is the display refresh interval (60 Hz).
const FramePeriod = 16667 * time.Microsecond

// Screen owns a view tree and models the UI thread's draw pipeline: tree
// mutations mark the screen dirty, and the change becomes visible at the
// next frame boundary plus a jittered draw latency. The gap between the
// tree-mutation time and the on-screen time is the paper's t_screen - t_ui.
type Screen struct {
	k    *simtime.Kernel
	root *View

	dirty     bool
	drawEv    simtime.Event
	version   uint64 // bumped on every mutation
	drawnVer  uint64 // version visible on screen
	baseDraw  time.Duration
	jitterMax time.Duration

	watchers []*screenWatcher
	onDraw   []func(at simtime.Time)

	// appCPU accumulates the app's modeled CPU busy time, used for the
	// Table 3 overhead measurement.
	appCPU time.Duration

	// Observability: the pending-input fields attribute the next draw commit
	// to the user input that caused it (the paper's t_screen - t_ui gap).
	tr        *obs.Trace
	draws     *obs.Counter
	parses    *obs.Counter
	drawHist  *obs.Histogram
	inputName string
	inputID   uint64
	inputAt   simtime.Time
	inputSet  bool
}

type screenWatcher struct {
	cond  func(root *View) bool
	fn    func(at simtime.Time)
	fired bool
}

// NewScreen creates a screen with a root view and the default draw-latency
// model (one frame boundary + up to ~8ms of jitter).
func NewScreen(k *simtime.Kernel, root *View) *Screen {
	s := &Screen{k: k, root: root, baseDraw: 4 * time.Millisecond, jitterMax: 8 * time.Millisecond}
	root.setScreen(s)
	return s
}

// Kernel returns the driving kernel.
func (s *Screen) Kernel() *simtime.Kernel { return s.k }

// Root returns the root view.
func (s *Screen) Root() *View { return s.root }

// Version returns the tree mutation counter.
func (s *Screen) Version() uint64 { return s.version }

// DrawnVersion returns the version currently visible on screen.
func (s *Screen) DrawnVersion() uint64 { return s.drawnVer }

// SetObs attaches a trace bus and metrics registry.
func (s *Screen) SetObs(tr *obs.Trace, reg *obs.Registry) {
	s.tr = tr
	s.draws = reg.Counter("ui_draws")
	s.parses = reg.Counter("ui_parses")
	s.drawHist = reg.Histogram("ui_input_to_draw_ms")
}

// noteInput records a pending user input so the next draw commit can be
// attributed to it.
func (s *Screen) noteInput(name string, id uint64) {
	s.inputName, s.inputID, s.inputAt, s.inputSet = name, id, s.k.Now(), true
}

// AddAppCPU records modeled app CPU time (the app calls this from its
// event handlers).
func (s *Screen) AddAppCPU(d time.Duration) { s.appCPU += d }

// AppCPU returns the accumulated app CPU time.
func (s *Screen) AppCPU() time.Duration { return s.appCPU }

// invalidate marks the tree changed and schedules a draw at the next frame
// boundary (if one is not already pending).
func (s *Screen) invalidate() {
	s.version++
	if s.dirty {
		return
	}
	s.dirty = true
	now := s.k.Now()
	// Next 60Hz frame boundary after now.
	next := (now/FramePeriod + 1) * FramePeriod
	jitter := time.Duration(0)
	if s.jitterMax > 0 {
		jitter = time.Duration(s.k.Rand().Int63n(int64(s.jitterMax)))
	}
	s.drawEv = s.k.At(next+s.baseDraw+jitter, s.draw)
}

// draw commits pending changes to the screen.
func (s *Screen) draw() {
	s.dirty = false
	s.drawEv = simtime.Event{}
	s.drawnVer = s.version
	now := s.k.Now()
	s.draws.Inc()
	if s.inputSet {
		s.inputSet = false
		if s.tr != nil {
			s.tr.Emit(obs.TraceEvent{
				Kind: obs.KindSpan, Layer: obs.LayerUI, Name: "ui:" + s.inputName,
				Start: time.Duration(s.inputAt), End: time.Duration(now), ID: s.inputID,
			})
		}
		s.drawHist.Observe(float64(now-s.inputAt) / float64(time.Millisecond))
	}
	for _, fn := range s.onDraw {
		fn(now)
	}
	for _, w := range s.watchers {
		if !w.fired && w.cond(s.root) {
			w.fired = true
			w.fn(now)
		}
	}
	// Drop fired watchers, so a draw scans only the live ones. A watcher an
	// fn registered above is first checked at the next draw.
	s.watchers = slices.DeleteFunc(s.watchers, func(w *screenWatcher) bool { return w.fired })
}

// OnDraw registers a listener invoked at every draw commit.
func (s *Screen) OnDraw(fn func(at simtime.Time)) { s.onDraw = append(s.onDraw, fn) }

// WatchScreen registers a one-shot watcher fired at the first draw where
// cond holds over the live tree. This models the 60fps screen recording the
// paper uses as latency ground truth (t_screen).
func (s *Screen) WatchScreen(cond func(root *View) bool, fn func(at simtime.Time)) {
	// The condition may already hold on-screen.
	if !s.dirty && cond(s.root) {
		fn(s.k.Now())
		return
	}
	s.watchers = append(s.watchers, &screenWatcher{cond: cond, fn: fn})
}
