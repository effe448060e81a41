// Package simtime provides a deterministic discrete-event simulation kernel.
//
// All QoE Doctor substrates (radio, network, UI) run on virtual time managed
// by a Kernel: events are scheduled at absolute virtual times and executed in
// order, with FIFO tie-breaking for events scheduled at the same instant.
// Nothing in the simulation reads the wall clock, so a 16-hour background
// traffic study executes in milliseconds and every run with the same seed is
// bit-for-bit reproducible.
//
// The scheduler is built for sweep throughput: the priority queue is an
// inlined 4-ary min-heap specialized to events (no container/heap interface
// dispatch), events are recycled through a per-kernel free list so
// steady-state scheduling allocates nothing, and cancellation is lazy (a
// canceled event is marked dead and collected when it surfaces, instead of
// paying an O(n) sift to extract it from the middle of the heap). Each
// Kernel is fully self-contained — no package-level state — so independent
// kernels can run on separate goroutines concurrently, which is what the
// sweep engine (internal/sweep) does. Hot per-packet paths schedule with
// AtWith/AfterWith, which take a callback bound once per object plus the
// pointer it acts on, so a hop allocates no closure.
package simtime

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Time is a virtual timestamp, measured as a duration since the simulation
// epoch (t = 0). It intentionally reuses time.Duration so callers can write
// literals like 5*time.Second.
type Time = time.Duration

// event is the pooled, kernel-internal representation of one scheduled
// callback. Events are recycled through the kernel's free list the moment
// they fire or their cancellation is collected; gen distinguishes the
// current occupant from earlier schedules that reused the same object, so a
// stale handle can never touch a recycled event.
type event struct {
	when Time
	seq  uint64
	gen  uint64
	// fn is an At callback; an AtWith event sets fnArg and arg instead and
	// fires as fnArg(arg).
	fn     func()
	fnArg  func(any)
	arg    any
	dead   bool
	kernel *Kernel
}

// Event is a handle to a scheduled callback, returned by the scheduling
// methods so callers can cancel it before it fires. It is a small value
// type: the zero Event is inert (all methods no-op), and a handle kept
// around after its event fired or was canceled stays safely inert even
// though the kernel has recycled the underlying object for a later
// schedule — the generation check makes a stale Cancel a no-op rather than
// a cancellation of an unrelated event.
type Event struct {
	e   *event
	gen uint64
}

// When returns the virtual time the event is scheduled for (zero for inert
// or stale handles).
func (ev Event) When() Time {
	if ev.e == nil || ev.e.gen != ev.gen {
		return 0
	}
	return ev.e.when
}

// Cancel prevents the event from firing. Canceling an already-fired,
// already-canceled, or zero Event is a no-op. Cancel must only be called
// from the kernel goroutine (i.e. from within event callbacks or between
// Run calls).
func (ev Event) Cancel() {
	e := ev.e
	if e == nil || e.gen != ev.gen || e.dead {
		return
	}
	e.dead = true
	// Release the callback and its argument now; the shell is collected
	// lazily.
	e.fn, e.fnArg, e.arg = nil, nil, nil
	k := e.kernel
	k.live--
	k.deadInQueue++
	k.maybeCompact()
}

// Canceled reports whether Cancel was called before the event fired. Once
// the kernel has collected the canceled event the handle reads as stale and
// Canceled reverts to false; use it right after Cancel, not as long-term
// state.
func (ev Event) Canceled() bool {
	return ev.e != nil && ev.e.gen == ev.gen && ev.e.dead
}

// Pending reports whether this handle's event is still queued to fire.
func (ev Event) Pending() bool {
	return ev.e != nil && ev.e.gen == ev.gen && !ev.e.dead
}

// Kernel is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use: one simulation model is expected to be driven from one
// goroutine, with concurrency expressed as interleaved events rather than
// OS-level parallelism. Distinct kernels share nothing and may run in
// parallel with each other.
type Kernel struct {
	now Time
	// queue is a 4-ary min-heap on (when, seq). 4-ary beats binary here:
	// sift-down does more comparisons per level but the tree is half as
	// deep, and the hot mix is push-heavy (every push sifts up through a
	// shallower tree, and most pops happen near the front of dense
	// same-instant runs).
	queue []*event
	free  []*event // recycled event shells
	// live counts queued events that have not been canceled; deadInQueue
	// counts canceled shells awaiting lazy collection.
	live        int
	deadInQueue int
	seq         uint64
	rng         *rand.Rand
	// fillVal holds the bytes of the last Int63 draw that Fill has not
	// handed out yet, low byte first; fillPos counts them.
	fillVal int64
	fillPos int8
	stopped bool
	// processed counts fired events, exposed for tests and budget guards.
	processed uint64

	// Control hook state: ctlFn, when set, runs between events at every
	// multiple of ctlEvery during RunUntil (ctlNext is the next firing
	// time). Hooks are not queued events — firing one does not advance the
	// processed counter, draw from the RNG, or perturb event tie-breaking.
	ctlEvery Time
	ctlNext  Time
	ctlFn    func(now Time)

	// trace, when attached, receives kernel-layer spans for each Run /
	// RunUntil plus periodic queue-depth counter samples (all virtual-time
	// stamped, so attaching a trace never perturbs determinism).
	trace *obs.Trace
	// prof, when attached, aggregates wall-clock time per callback site.
	prof      *obs.Profiler
	siteNames map[uintptr]string
}

// queueSampleEvery is the dispatch interval between queue-depth samples on
// an attached trace: frequent enough to see backlog build-up, sparse enough
// that million-event runs stay exportable.
const queueSampleEvery = 1024

// heapArity is the fan-out of the event heap.
const heapArity = 4

// NewKernel returns a kernel at virtual time zero with a deterministic RNG
// derived from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. All model-level
// randomness must come from here to keep runs reproducible. Byte streams
// come from Fill, never from Rand().Read: the two keep separate
// leftover-byte positions, so mixing them would change which bytes each
// one hands out.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Fill writes pseudo-random bytes from the kernel's source into p. It is
// Rand().Read byte for byte and draw for draw: each Int63 draw yields seven
// bytes, low byte first, and bytes left over from one call start the next.
func (k *Kernel) Fill(p []byte) {
	i := 0
	for ; i < len(p) && k.fillPos > 0; i++ {
		p[i] = byte(k.fillVal)
		k.fillVal >>= 8
		k.fillPos--
	}
	// Whole draws: store eight bytes and keep seven; the next draw, or
	// the tail, overwrites the eighth.
	for ; len(p)-i >= 8; i += 7 {
		binary.LittleEndian.PutUint64(p[i:], uint64(k.rng.Int63()))
	}
	if i < len(p) {
		k.fillVal, k.fillPos = k.rng.Int63(), 7
		for ; i < len(p); i++ {
			p[i] = byte(k.fillVal)
			k.fillVal >>= 8
			k.fillPos--
		}
	}
}

// Processed returns the number of events fired so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// SetTrace attaches a trace bus and binds it to this kernel's virtual clock.
// Pass nil to detach.
func (k *Kernel) SetTrace(tr *obs.Trace) {
	k.trace = tr
	tr.Bind(func() time.Duration { return k.now })
}

// SetProfiler attaches a wall-clock callback profiler. Pass nil to detach.
func (k *Kernel) SetProfiler(p *obs.Profiler) {
	k.prof = p
	if p != nil && k.siteNames == nil {
		k.siteNames = make(map[uintptr]string)
	}
}

// siteName resolves a callback (a func() or an AtWith func(any)) to its
// defining function's symbol name, cached per code pointer since the same
// closures fire millions of times.
func (k *Kernel) siteName(fn any) string {
	pc := reflect.ValueOf(fn).Pointer()
	if name, ok := k.siteNames[pc]; ok {
		return name
	}
	name := "unknown"
	if f := runtime.FuncForPC(pc); f != nil {
		name = f.Name()
	}
	k.siteNames[pc] = name
	return name
}

// alloc takes an event shell from the free list, or mints one.
func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	return &event{kernel: k}
}

// recycle retires an event shell to the free list. Bumping gen invalidates
// every outstanding handle to the old schedule.
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.fn, e.fnArg, e.arg = nil, nil, nil
	k.free = append(k.free, e)
}

// before is the heap ordering: earliest time first, FIFO (schedule order)
// among events at the same instant.
func (e *event) before(o *event) bool {
	return e.when < o.when || (e.when == o.when && e.seq < o.seq)
}

// push inserts e, sifting up through the 4-ary heap.
func (k *Kernel) push(e *event) {
	k.queue = append(k.queue, e)
	q := k.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

// popTop removes and returns the minimum event.
func (k *Kernel) popTop() *event {
	q := k.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	k.queue = q[:n]
	if n > 0 {
		k.siftDown(0, last)
	}
	return top
}

// siftDown places e at index i, pulling smaller children up.
func (k *Kernel) siftDown(i int, e *event) {
	q := k.queue
	n := len(q)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		m := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q[c].before(q[m]) {
				m = c
			}
		}
		if !q[m].before(e) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = e
}

// peekLive returns the earliest live event, collecting any canceled shells
// that have surfaced at the top of the heap. Returns nil when nothing is
// left to fire.
func (k *Kernel) peekLive() *event {
	for len(k.queue) > 0 {
		e := k.queue[0]
		if !e.dead {
			return e
		}
		k.popTop()
		k.deadInQueue--
		k.recycle(e)
	}
	return nil
}

// maybeCompact rebuilds the heap without its dead shells once more than
// half the queue is cancellations. Cancel-heavy workloads (TCP re-arms its
// RTO timer on every ACK) would otherwise carry a long tail of dead entries
// until their original deadlines surfaced.
func (k *Kernel) maybeCompact() {
	if len(k.queue) < 64 || k.deadInQueue*2 < len(k.queue) {
		return
	}
	q := k.queue
	kept := q[:0]
	for _, e := range q {
		if e.dead {
			k.recycle(e)
		} else {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(q); i++ {
		q[i] = nil
	}
	k.queue = kept
	k.deadInQueue = 0
	if len(kept) > 1 {
		for i := (len(kept) - 2) / heapArity; i >= 0; i-- {
			k.siftDown(i, kept[i])
		}
	}
}

// At schedules fn at absolute virtual time t. Scheduling in the past panics:
// it is always a model bug, and silently clamping would hide causality
// violations.
func (k *Kernel) At(t Time, fn func()) Event {
	e := k.schedule(t)
	e.fn = fn
	return Event{e: e, gen: e.gen}
}

// AtWith schedules fn(arg) at absolute virtual time t. It is At for a
// callback bound once per object: a per-packet hop passes its packet as arg
// instead of capturing it in a fresh closure, so scheduling allocates
// nothing. AtWith and At share one sequence counter, so events at one
// instant fire in schedule order whichever entry point made them, and the
// returned handle behaves exactly as At's.
func (k *Kernel) AtWith(t Time, fn func(any), arg any) Event {
	e := k.schedule(t)
	e.fnArg, e.arg = fn, arg
	return Event{e: e, gen: e.gen}
}

// schedule queues a fresh event shell at t; the caller sets its callback.
func (k *Kernel) schedule(t Time) *event {
	if t < k.now {
		panic(fmt.Sprintf("simtime: scheduling event at %v before now %v", t, k.now))
	}
	e := k.alloc()
	e.when, e.seq, e.dead = t, k.seq, false
	k.seq++
	k.live++
	k.push(e)
	return e
}

// After schedules fn delay after the current virtual time.
func (k *Kernel) After(delay time.Duration, fn func()) Event {
	if delay < 0 {
		delay = 0
	}
	return k.At(k.now+delay, fn)
}

// AfterWith schedules fn(arg) delay after the current virtual time.
func (k *Kernel) AfterWith(delay time.Duration, fn func(any), arg any) Event {
	if delay < 0 {
		delay = 0
	}
	return k.AtWith(k.now+delay, fn, arg)
}

// Stop makes the currently executing Run/RunUntil return after the current
// event completes. Pending events remain queued.
func (k *Kernel) Stop() { k.stopped = true }

// SetControlHook installs fn to run at every multiple of interval while
// RunUntil advances virtual time. The first firing is the next multiple
// after now, so a hook installed mid-run keeps the phase of one installed
// at zero. The hook is the kernel-safe point for runtime control: it
// executes between events — before any event scheduled at the same
// instant — with the clock set to the firing time, and it may schedule or
// cancel events. Unlike a Ticker, a hook is not itself an event: it does
// not advance the processed counter, draw from the kernel RNG, or take
// part in event tie-breaking, so an inert hook leaves a run byte-identical
// to one without it. One hook per kernel; pass nil fn to remove it. Run
// (run-to-drain) ignores the hook — without a horizon a periodic hook
// would never stop firing.
func (k *Kernel) SetControlHook(interval Time, fn func(now Time)) {
	if fn == nil {
		k.ctlFn = nil
		return
	}
	if interval <= 0 {
		panic("simtime: control hook interval must be positive")
	}
	k.ctlEvery = interval
	k.ctlNext = (k.now/interval + 1) * interval
	k.ctlFn = fn
}

// Pending returns the number of live (not canceled) events currently queued.
func (k *Kernel) Pending() int { return k.live }

// step fires the next live event. It reports false when nothing is left.
func (k *Kernel) step() bool {
	e := k.peekLive()
	if e == nil {
		return false
	}
	k.popTop()
	k.now = e.when
	fn, fnArg, arg := e.fn, e.fnArg, e.arg
	k.live--
	k.processed++
	// Recycle before running the callback: handles to this event go stale
	// now, so a callback (or anything it triggers) canceling "itself" is
	// inert, and the shell is immediately reusable for events the callback
	// schedules.
	k.recycle(e)
	if k.trace != nil && k.processed%queueSampleEvery == 0 {
		k.trace.CounterSample(obs.LayerKernel, "queue_depth", float64(k.live))
	}
	if k.prof != nil {
		var cb any = fnArg
		if fn != nil {
			cb = fn
		}
		site := k.siteName(cb)
		t0 := time.Now()
		fire(fn, fnArg, arg)
		k.prof.Observe(site, time.Since(t0))
		return true
	}
	fire(fn, fnArg, arg)
	return true
}

// fire runs an event's callback: fn for an At event, fnArg(arg) for an
// AtWith event.
func fire(fn func(), fnArg func(any), arg any) {
	if fn != nil {
		fn()
		return
	}
	fnArg(arg)
}

// Run executes events until the queue drains or Stop is called.
func (k *Kernel) Run() {
	sp, before := k.beginRunSpan()
	k.stopped = false
	for !k.stopped && k.step() {
	}
	k.endRunSpan(sp, before)
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t (even if the queue drained earlier). Events scheduled later stay
// queued.
func (k *Kernel) RunUntil(t Time) {
	sp, before := k.beginRunSpan()
	k.stopped = false
	for !k.stopped {
		e := k.peekLive()
		if k.ctlFn != nil && k.ctlNext <= t && (e == nil || k.ctlNext <= e.when) {
			// The control hook fires before events at its own instant; it
			// may schedule new events, so re-peek on the next iteration.
			k.now = k.ctlNext
			at := k.ctlNext
			k.ctlNext += k.ctlEvery
			k.ctlFn(at)
			continue
		}
		if e == nil || e.when > t {
			break
		}
		k.step()
	}
	if !k.stopped && k.now < t {
		k.now = t
	}
	k.endRunSpan(sp, before)
}

// beginRunSpan opens a kernel-layer span covering one Run/RunUntil call when
// a trace is attached; the two-value return keeps the detached path free of
// any obs work beyond a nil check.
func (k *Kernel) beginRunSpan() (obs.Span, uint64) {
	if k.trace == nil {
		return obs.Span{}, 0
	}
	return k.trace.Start(obs.LayerKernel, "kernel:run", k.trace.Scope()), k.processed
}

func (k *Kernel) endRunSpan(sp obs.Span, before uint64) {
	if !sp.Active() {
		return
	}
	sp.Attr("events", strconv.FormatUint(k.processed-before, 10))
	sp.End()
}

// RunFor is shorthand for RunUntil(Now()+d).
func (k *Kernel) RunFor(d time.Duration) { k.RunUntil(k.now + d) }

// Ticker invokes fn every period until the returned stop function is called.
// The first invocation happens one period from now. Stopping from within fn
// is safe: the pending reschedule is suppressed, and the stop function stays
// inert afterwards even once the ticker's event shells have been recycled
// for unrelated schedules.
func (k *Kernel) Ticker(period time.Duration, fn func()) (stop func()) {
	if period <= 0 {
		panic("simtime: ticker period must be positive")
	}
	var ev Event
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			ev = k.After(period, tick)
		}
	}
	ev = k.After(period, tick)
	return func() {
		stopped = true
		ev.Cancel()
	}
}
