// Package controller implements QoE Doctor's QoE-aware UI controller (§4):
// it replays user behaviour on an app through the instrumentation API using
// the see-interact-wait paradigm, identifies views by signature (class + ID
// + description, never coordinates), and logs the start/end timestamps of
// every waiting period into an AppBehaviorLog.
//
// The controller is app-agnostic: everything it knows about Facebook,
// YouTube, and the browsers is expressed as view signatures and waiting
// conditions in the driver types (Table 1 of the paper).
package controller

import (
	"time"

	"repro/internal/core/qoe"
	"repro/internal/simtime"
	"repro/internal/uisim"
)

// DefaultTimeout bounds any single wait.
const DefaultTimeout = 10 * time.Minute

// Controller drives one app's screen.
type Controller struct {
	k   *simtime.Kernel
	in  *uisim.Instrumentation
	log *qoe.BehaviorLog

	// Timeout bounds each wait (DefaultTimeout when zero).
	Timeout time.Duration
}

// New creates a controller over an app screen, logging into log.
func New(k *simtime.Kernel, screen *uisim.Screen, log *qoe.BehaviorLog) *Controller {
	return &Controller{k: k, in: uisim.NewInstrumentation(k, screen), log: log}
}

// Instrumentation exposes the underlying instrumentation (CPU accounting,
// direct interaction in tests).
func (c *Controller) Instrumentation() *uisim.Instrumentation { return c.in }

// Log returns the behavior log.
func (c *Controller) Log() *qoe.BehaviorLog { return c.log }

func (c *Controller) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

// Cond is a waiting condition over a parsed layout-tree snapshot.
type Cond func(*uisim.Snapshot) bool

// VisibleCond waits for a view matching sig to be shown.
func VisibleCond(sig uisim.Signature) Cond {
	return func(s *uisim.Snapshot) bool { return s.VisibleMatch(sig) }
}

// GoneCond waits for no shown view to match sig.
func GoneCond(sig uisim.Signature) Cond {
	return func(s *uisim.Snapshot) bool { return !s.VisibleMatch(sig) }
}

// interactFn performs the user interaction and returns the injection time.
type interactFn func() (simtime.Time, error)

// UserWait runs a user-triggered wait: interact, then poll until cond. The
// logged Start is the interaction injection time; End is the observing
// parse's completion time (t_m).
func (c *Controller) UserWait(app, action, note string, interact interactFn, cond Cond, done func(qoe.BehaviorEntry)) error {
	start, err := interact()
	if err != nil {
		return err
	}
	parseTime := c.in.ParseTime()
	c.in.WaitUntil(cond, c.timeout(), func(r uisim.WaitResult) {
		e := qoe.BehaviorEntry{
			App: app, Action: action, Kind: qoe.UserTriggered,
			Start: start, End: r.At, Observed: r.Observed,
			ParseTime: parseTime, Note: note,
		}
		c.log.Add(e)
		if done != nil {
			done(e)
		}
	})
	return nil
}

// AppWait runs an app-triggered wait: poll until startCond (e.g. a progress
// bar appears), then until endCond (it disappears). Both timestamps carry
// one parsing delay, so the calibration subtracts only t_parsing (§5.1).
func (c *Controller) AppWait(app, action, note string, startCond, endCond Cond, done func(qoe.BehaviorEntry)) {
	parseTime := c.in.ParseTime()
	c.in.WaitUntil(startCond, c.timeout(), func(rs uisim.WaitResult) {
		if !rs.Observed {
			e := qoe.BehaviorEntry{
				App: app, Action: action, Kind: qoe.AppTriggered,
				Start: rs.At, End: rs.At, Observed: false,
				ParseTime: parseTime, Note: note,
			}
			c.log.Add(e)
			if done != nil {
				done(e)
			}
			return
		}
		c.in.WaitUntil(endCond, c.timeout(), func(re uisim.WaitResult) {
			e := qoe.BehaviorEntry{
				App: app, Action: action, Kind: qoe.AppTriggered,
				Start: rs.At, End: re.At, Observed: re.Observed,
				ParseTime: parseTime, Note: note,
			}
			c.log.Add(e)
			if done != nil {
				done(e)
			}
		})
	})
}

// FrameRecorder captures visual-completeness frames at every screen draw —
// the simulation's version of the 60 fps screen recording the paper plans
// to analyze with the Speed Index metric (§4.2.3). The completeness
// function is app-specific (e.g. browser paint progress).
type FrameRecorder struct {
	frames []qoe.Frame
	active bool
}

// NewFrameRecorder attaches a recorder to a screen.
func NewFrameRecorder(screen *uisim.Screen, completeness func() float64) *FrameRecorder {
	fr := &FrameRecorder{}
	screen.OnDraw(func(at simtime.Time) {
		if fr.active {
			fr.frames = append(fr.frames, qoe.Frame{At: at, Complete: completeness()})
		}
	})
	return fr
}

// Start begins a fresh recording.
func (fr *FrameRecorder) Start() {
	fr.frames = nil
	fr.active = true
}

// Stop ends the recording and returns the captured frames.
func (fr *FrameRecorder) Stop() []qoe.Frame {
	fr.active = false
	return fr.frames
}

// Script replays a sequence of steps, optionally preserving the recorded
// think time between user actions (§4.1: "with and without replaying the
// timing between each action").
type Script struct {
	Steps []Step
	// PreserveTiming waits each step's Delay before running it; otherwise
	// steps run back-to-back.
	PreserveTiming bool
	// StepTimeout is a per-step watchdog: a step that has not called next()
	// within this budget is reported failed (its index appended to
	// TimedOut) and the script advances anyway, instead of deadlocking the
	// whole replay when an app hangs under network impairment. Zero
	// disables the watchdog.
	StepTimeout time.Duration
	// TimedOut collects the indexes of steps the watchdog abandoned,
	// in order (filled in by Play).
	TimedOut []int
}

// Step is one scripted action.
type Step struct {
	Delay time.Duration // think time before this step (when preserved)
	Run   func(next func())
}

// Play executes the script; done fires after the last step.
func (s *Script) Play(k *simtime.Kernel, done func()) {
	i := 0
	var advance func()
	advance = func() {
		if i >= len(s.Steps) {
			if done != nil {
				done()
			}
			return
		}
		step := s.Steps[i]
		idx := i
		i++
		delay := time.Duration(0)
		if s.PreserveTiming {
			delay = step.Delay
		}
		k.After(delay, func() {
			// Guard against the step completing after its watchdog fired
			// (or calling next twice): only the first advance counts.
			advanced := false
			var watch simtime.Event
			next := func() {
				if advanced {
					return
				}
				advanced = true
				watch.Cancel()
				watch = simtime.Event{}
				advance()
			}
			if s.StepTimeout > 0 {
				watch = k.After(s.StepTimeout, func() {
					watch = simtime.Event{}
					if advanced {
						return
					}
					advanced = true
					s.TimedOut = append(s.TimedOut, idx)
					advance()
				})
			}
			step.Run(next)
		})
	}
	advance()
}
