package simtime

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Lockstep advances a set of independent kernels in parallel under
// conservative-lookahead synchronization: virtual time is cut into epochs
// of fixed width (the minimum latency of any cross-kernel interaction, so
// nothing that happens inside an epoch on one kernel can affect another
// kernel within the same epoch), every kernel runs its epoch to completion,
// and a serial barrier callback exchanges cross-kernel state between
// epochs.
//
// Determinism: each kernel is single-threaded and owns its RNG, epochs are
// barrier-aligned, and the barrier runs serially on the coordinating
// goroutine — so which worker executes which kernel, and how many workers
// exist, changes wall-clock interleaving only. A Lockstep run is
// byte-identical at any worker count and GOMAXPROCS.
//
// Epoch protocol: the coordinator (the goroutine calling Run) and workers−1
// long-lived helpers claim kernels from a shared atomic cursor. The
// coordinator publishes an epoch by storing its end, resetting the cursor
// and the count of outstanding helpers, then bumping the epoch sequence
// number; each helper checks in by decrementing the count once the cursor
// is exhausted. Either side waits by yielding for a bounded spin, then
// parking on a one-slot channel. A token on that channel is only a hint to
// recheck: the atomic sequence number or count alone decides when a wait
// ends.
type Lockstep struct {
	kernels []*Kernel
	workers int

	end     Time         // the published epoch's end
	cursor  atomic.Int64 // kernels claimed in the published epoch
	pending atomic.Int64 // helpers yet to check in for the published epoch
	seq     atomic.Int64 // epochs published; helpers wait for the next one
	stop    bool         // set before Close publishes its final sequence number

	wake   []chan struct{} // one slot per helper; nil while no helper runs
	done   chan struct{}   // one slot; the last helper to check in signals it
	panics []*KernelPanic  // recovered panic per kernel, re-raised after the epoch
	wg     sync.WaitGroup
}

// spinYields bounds how often a wait yields with runtime.Gosched before it
// parks. Inside the benchmark's storm on a 2-vCPU host a yield averages
// about 0.9 µs, so the spin lasts up to about 90 µs, roughly one epoch's
// kernel work; about 93% of the helpers' waits and 94% of the
// coordinator's end within it (DESIGN.md §14). It is a constant because it
// only trades a parked thread's wake-up against CPU burnt while waiting; no
// output depends on it.
const spinYields = 100

// NewLockstep builds a coordinator over the kernels. workers counts the
// goroutine calling Run: the first Run spawns workers−1 helper goroutines,
// which live until Close, and workers == 1 runs every kernel on the calling
// goroutine. workers <= 0 selects GOMAXPROCS; the count is capped at
// len(kernels).
func NewLockstep(kernels []*Kernel, workers int) *Lockstep {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(kernels) {
		workers = len(kernels)
	}
	if workers < 1 {
		workers = 1
	}
	return &Lockstep{kernels: kernels, workers: workers, panics: make([]*KernelPanic, len(kernels))}
}

// Workers returns the effective worker count.
func (l *Lockstep) Workers() int { return l.workers }

// Run advances every kernel to exactly `until` in lockstep epochs of the
// given window, invoking barrier (may be nil) after each epoch with the
// epoch's end time. The final barrier (at `until`) also fires. window must
// be positive; it is the safe lookahead — the minimum virtual-time latency
// of any cross-kernel influence.
//
// A panic in a kernel does not stop the other kernels' epoch; once the
// epoch is over, Run re-panics on the calling goroutine with a
// *KernelPanic for the lowest-indexed kernel that panicked, so the value
// is the same at every worker count.
func (l *Lockstep) Run(until, window Time, barrier func(end Time)) {
	if window <= 0 {
		panic(fmt.Sprintf("simtime: lockstep window must be positive, got %v", window))
	}
	if len(l.kernels) == 0 {
		return
	}
	start := l.kernels[0].Now()
	for _, k := range l.kernels[1:] {
		if k.Now() != start {
			panic("simtime: lockstep kernels out of sync")
		}
	}
	if l.workers > 1 && l.wake == nil {
		l.start()
	}
	for t := start; t < until; {
		t += window
		if t > until {
			t = until
		}
		l.epoch(t)
		if barrier != nil {
			barrier(t)
		}
	}
}

// Close stops the helper goroutines and waits for them to exit
// (idempotent; Run can be called again — helpers are respawned on demand).
func (l *Lockstep) Close() {
	if l.wake == nil {
		return
	}
	l.stop = true
	l.publish()
	l.wg.Wait()
	l.stop = false
	l.wake, l.done = nil, nil
}

// start spawns the helpers. Each receives the current sequence number
// here, not when its goroutine first runs: by then the coordinator may
// already have published the next epoch, which the helper would miss.
func (l *Lockstep) start() {
	l.done = make(chan struct{}, 1)
	l.wake = make([]chan struct{}, l.workers-1)
	seq := l.seq.Load()
	for i := range l.wake {
		l.wake[i] = make(chan struct{}, 1)
		l.wg.Add(1)
		go l.helper(seq, l.wake[i])
	}
}

// helper runs its share of every published epoch's kernels and checks in,
// until Close.
func (l *Lockstep) helper(seq int64, wake <-chan struct{}) {
	defer l.wg.Done()
	for {
		seq++
		await(&l.seq, seq, wake)
		if l.stop {
			return
		}
		l.drain()
		if l.pending.Add(-1) == 0 {
			signal(l.done)
		}
	}
}

// publish starts the next epoch (or, with stop set, ends every helper).
// The atomic sequence number orders every field written before it ahead of
// the helpers' reads.
func (l *Lockstep) publish() {
	l.cursor.Store(0)
	l.pending.Store(int64(len(l.wake)))
	l.seq.Add(1)
	for _, c := range l.wake {
		signal(c)
	}
}

// epoch runs every kernel to exactly `end`. The helpers' check-ins give
// the coordinator a happens-before edge from each kernel's execution, so
// the barrier (and the next epoch's dispatch) reads consistent state.
func (l *Lockstep) epoch(end Time) {
	l.end = end
	l.publish()
	l.drain()
	await(&l.pending, 0, l.done)
	for _, p := range l.panics {
		if p != nil {
			clear(l.panics)
			panic(p)
		}
	}
}

// drain claims kernels from the cursor and runs each to the epoch end
// until none is left.
func (l *Lockstep) drain() {
	for {
		i := int(l.cursor.Add(1) - 1)
		if i >= len(l.kernels) {
			return
		}
		l.runKernel(i)
	}
}

func (l *Lockstep) runKernel(i int) {
	defer func() {
		if p := recover(); p != nil {
			l.panics[i] = &KernelPanic{Kernel: i, Value: p, Stack: debug.Stack()}
		}
	}()
	l.kernels[i].RunUntil(l.end)
}

// KernelPanic is the value Run re-panics with when a kernel's event
// panicked. Stack is the panicking goroutine's stack, recorded where the
// panic was recovered, so it still shows the failing callback.
type KernelPanic struct {
	Kernel int    // index of the kernel in the Lockstep
	Value  any    // the value the kernel's event panicked with
	Stack  []byte // debug.Stack() of the goroutine that ran the kernel
}

func (p *KernelPanic) Error() string {
	return fmt.Sprintf("simtime: lockstep kernel %d panicked: %v\n\n%s", p.Kernel, p.Value, p.Stack)
}

// Unwrap returns Value if it is an error, so errors.Is and errors.As see
// the original panic.
func (p *KernelPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// await returns once v holds want: it yields up to spinYields times, then
// parks on c, rechecking v after every token.
func await(v *atomic.Int64, want int64, c <-chan struct{}) {
	for i := 0; i < spinYields && v.Load() != want; i++ {
		runtime.Gosched()
	}
	for v.Load() != want {
		<-c
	}
}

// signal leaves a token on the one-slot channel c unless one is already
// waiting there.
func signal(c chan<- struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}
