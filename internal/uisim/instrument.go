package uisim

import (
	"fmt"
	"time"

	"repro/internal/simtime"
)

// Snapshot is a parsed copy of the layout tree: what the UI controller sees
// after one parsing pass. It reflects the tree state at the moment the parse
// started. Views is shared by every snapshot of the same tree version: read
// it, never write it.
type Snapshot struct {
	At    simtime.Time // parse completion time
	Views []SnapView

	// fire delivers the snapshot when its parse completes. Parse binds it
	// once; WaitUntil re-arms the same shell and callback for every poll.
	fire func()
}

// SnapView is one flattened view in a snapshot.
type SnapView struct {
	Class, ID, Desc, Text string
	Shown                 bool
}

// Find returns the first snapshot view matching sig, or nil.
func (s *Snapshot) Find(sig Signature) *SnapView {
	for i := range s.Views {
		v := &s.Views[i]
		if (sig.Class == "" || v.Class == sig.Class) &&
			(sig.ID == "" || v.ID == sig.ID) &&
			(sig.Desc == "" || v.Desc == sig.Desc) {
			return v
		}
	}
	return nil
}

// VisibleMatch reports whether some view matching sig is shown.
func (s *Snapshot) VisibleMatch(sig Signature) bool {
	for i := range s.Views {
		v := &s.Views[i]
		if v.Shown &&
			(sig.Class == "" || v.Class == sig.Class) &&
			(sig.ID == "" || v.ID == sig.ID) &&
			(sig.Desc == "" || v.Desc == sig.Desc) {
			return true
		}
	}
	return false
}

// VisibleTextMatch reports whether some shown view matching sig has text
// containing substr.
func (s *Snapshot) VisibleTextMatch(sig Signature, substr string) bool {
	for i := range s.Views {
		v := &s.Views[i]
		if v.Shown &&
			(sig.Class == "" || v.Class == sig.Class) &&
			(sig.ID == "" || v.ID == sig.ID) &&
			(sig.Desc == "" || v.Desc == sig.Desc) &&
			contains(v.Text, substr) {
			return true
		}
	}
	return false
}

// ContainsText reports whether any shown view's text contains substr.
func (s *Snapshot) ContainsText(substr string) bool {
	for i := range s.Views {
		v := &s.Views[i]
		if v.Shown && len(substr) > 0 && contains(v.Text, substr) {
			return true
		}
	}
	return false
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Instrumentation is the simulation's InstrumentationTestCase: it shares the
// app's process, injects input events, and parses the layout tree. Parsing
// costs CPU time proportional to the tree size; that cost is both modeled in
// virtual time (it delays observations — the t_parsing of Fig. 4) and
// accumulated for the CPU-overhead measurement of Table 3.
type Instrumentation struct {
	k      *simtime.Kernel
	screen *Screen

	// Parse cost model: base + perView * treeSize.
	parseBase    time.Duration
	parsePerView time.Duration
	inputLatency time.Duration

	// cpuFraction is the share of a parse pass's wall time that is real
	// CPU work; the rest is spent waiting on the UI thread to hand over
	// the tree. It feeds the Table 3 CPU-overhead accounting.
	cpuFraction float64

	// pollInterval, when larger than the parse time, spaces WaitUntil
	// polls apart instead of parsing back-to-back. The paper's controller
	// parses continuously; long simulated playbacks use a coarser cadence
	// to bound event counts (documented in EXPERIMENTS.md).
	pollInterval time.Duration

	parseCPU time.Duration
	polling  bool

	// The flattened tree and its parse cost, cached for tree version
	// viewsVer: polls between two mutations share one immutable slice. A
	// mutation makes the next parse build a fresh slice rather than rewrite
	// this one, which in-flight snapshots may still hold.
	views     []SnapView
	viewsVer  uint64
	viewsCost time.Duration
}

// NewInstrumentation attaches an instrumentation to a screen.
func NewInstrumentation(k *simtime.Kernel, screen *Screen) *Instrumentation {
	return &Instrumentation{
		k:            k,
		screen:       screen,
		parseBase:    2 * time.Millisecond,
		parsePerView: 60 * time.Microsecond,
		inputLatency: 2 * time.Millisecond,
		cpuFraction:  0.05,
	}
}

// Screen returns the instrumented screen.
func (in *Instrumentation) Screen() *Screen { return in.screen }

// ParseCPU returns cumulative CPU time spent parsing the tree.
func (in *Instrumentation) ParseCPU() time.Duration { return in.parseCPU }

// ParseTime returns the current cost of one layout-tree parse.
func (in *Instrumentation) ParseTime() time.Duration {
	_, cost := in.layout()
	return cost
}

// layout returns the flattened live tree and the cost of parsing it,
// flattening only when the screen's version has moved since the last call.
func (in *Instrumentation) layout() ([]SnapView, time.Duration) {
	if in.views == nil || in.viewsVer != in.screen.version {
		views := make([]SnapView, 0, len(in.views))
		in.screen.root.walk(func(v *View) {
			views = append(views, SnapView{
				Class: v.Class, ID: v.ID, Desc: v.Desc, Text: v.text, Shown: v.Shown(),
			})
		})
		in.views, in.viewsVer = views, in.screen.version
		in.viewsCost = in.parseBase + time.Duration(len(views))*in.parsePerView
	}
	return in.views, in.viewsCost
}

// noteAction allocates a correlation ID for a user input, makes it the
// current trace scope (so every layer's events during this action share the
// ID), and arms the screen's input-to-draw attribution.
func (in *Instrumentation) noteAction(name string) {
	tr := in.screen.tr
	if tr == nil {
		return
	}
	id := tr.NewID()
	tr.SetScope(id)
	in.screen.noteInput(name, id)
}

// Parse performs one parsing pass: the result reflects the tree at call
// time and becomes available one ParseTime later, when cb is invoked. The
// completion callback bound here is the one every parse fires, WaitUntil
// polls included, so profilers can count parses by its call site.
func (in *Instrumentation) Parse(cb func(*Snapshot)) {
	s := &Snapshot{}
	s.fire = func() {
		s.At = in.k.Now()
		cb(s)
	}
	in.parse(s)
}

// parse starts one parsing pass that delivers s through s.fire.
func (in *Instrumentation) parse(s *Snapshot) {
	in.screen.parses.Inc()
	var cost time.Duration
	s.Views, cost = in.layout()
	in.parseCPU += time.Duration(float64(cost) * in.cpuFraction)
	in.k.After(cost, s.fire)
}

// WaitResult reports how a WaitUntil ended.
type WaitResult struct {
	Observed bool         // condition became true before the timeout
	At       simtime.Time // parse-completion time of the observing parse (t_m)
	Parses   int          // number of parsing passes performed
}

// WaitUntil polls the layout tree back-to-back (each poll costs one
// ParseTime) until cond holds on a snapshot or the timeout expires. This is
// the wait component of the see-interact-wait paradigm; the returned At is
// the raw measured timestamp t_m = t_ui + t_offset + t_parsing, which the
// analyzer later calibrates by subtracting 3/2 t_parsing. Every poll of a
// wait hands cond the same *Snapshot: cond may keep its Views, not the
// snapshot itself.
func (in *Instrumentation) WaitUntil(cond func(*Snapshot) bool, timeout time.Duration, done func(WaitResult)) {
	if in.polling {
		panic("uisim: concurrent WaitUntil on one instrumentation")
	}
	in.polling = true
	deadline := in.k.Now() + timeout
	parses := 0
	var start simtime.Time
	var poll func()
	// One snapshot shell and one completion callback serve the whole wait:
	// the first poll binds them through Parse and later polls re-arm them,
	// so a poll allocates nothing.
	var shell *Snapshot
	onParse := func(s *Snapshot) {
		shell = s
		if ok := cond(s); ok || in.k.Now() >= deadline {
			in.polling = false
			done(WaitResult{Observed: ok, At: s.At, Parses: parses})
			return
		}
		if next := start + in.pollInterval; next > in.k.Now() {
			in.k.At(next, poll)
			return
		}
		poll()
	}
	poll = func() {
		parses++
		start = in.k.Now()
		if shell == nil {
			in.Parse(onParse)
		} else {
			in.parse(shell)
		}
	}
	poll()
}

// SetPollInterval spaces WaitUntil polls at least d apart (zero restores
// continuous back-to-back parsing).
func (in *Instrumentation) SetPollInterval(d time.Duration) { in.pollInterval = d }

// Click finds the view matching sig and dispatches a click to it after the
// input-injection latency. It returns the virtual time the click was
// injected (the measurement start time for user-triggered waits) or an
// error if no clickable view matches.
func (in *Instrumentation) Click(sig Signature) (simtime.Time, error) {
	v := in.screen.Root().Find(sig)
	if v == nil || !v.Shown() {
		return 0, fmt.Errorf("uisim: no visible view matches %v", sig)
	}
	if v.OnClick == nil {
		return 0, fmt.Errorf("uisim: view %v not clickable", sig)
	}
	in.noteAction("click")
	at := in.k.Now()
	in.k.After(in.inputLatency, v.OnClick)
	return at, nil
}

// Scroll dispatches a scroll gesture (dy > 0 scrolls content down, i.e. a
// pull-to-refresh style drag when at the top).
func (in *Instrumentation) Scroll(sig Signature, dy int) (simtime.Time, error) {
	v := in.screen.Root().Find(sig)
	if v == nil || !v.Shown() {
		return 0, fmt.Errorf("uisim: no visible view matches %v", sig)
	}
	if v.OnScroll == nil {
		return 0, fmt.Errorf("uisim: view %v not scrollable", sig)
	}
	in.noteAction("scroll")
	at := in.k.Now()
	in.k.After(in.inputLatency, func() { v.OnScroll(dy) })
	return at, nil
}

// EnterText types text into a matching EditText-like view.
func (in *Instrumentation) EnterText(sig Signature, text string) (simtime.Time, error) {
	v := in.screen.Root().Find(sig)
	if v == nil || !v.Shown() {
		return 0, fmt.Errorf("uisim: no visible view matches %v", sig)
	}
	in.noteAction("type")
	at := in.k.Now()
	in.k.After(in.inputLatency, func() {
		v.SetText(text)
		if v.OnText != nil {
			v.OnText(text)
		}
	})
	return at, nil
}

// PressEnter sends the ENTER key to a matching view (URL bars).
func (in *Instrumentation) PressEnter(sig Signature) (simtime.Time, error) {
	v := in.screen.Root().Find(sig)
	if v == nil || !v.Shown() {
		return 0, fmt.Errorf("uisim: no visible view matches %v", sig)
	}
	if v.OnEnter == nil {
		return 0, fmt.Errorf("uisim: view %v has no ENTER handler", sig)
	}
	in.noteAction("enter")
	at := in.k.Now()
	in.k.After(in.inputLatency, v.OnEnter)
	return at, nil
}
