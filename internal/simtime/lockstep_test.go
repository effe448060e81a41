package simtime

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

// lockstepRun builds n kernels, each self-scheduling a recurring event that
// mixes its RNG into a running digest, and advances them with the given
// worker count. Returns the per-kernel digests and final times.
func lockstepRun(n, workers int, until, window Time) ([]uint64, []Time, int) {
	kernels := make([]*Kernel, n)
	digests := make([]uint64, n)
	for i := range kernels {
		k := NewKernel(int64(100 + i))
		kernels[i] = k
		i := i
		// Periods differ per kernel so epochs cut each stream differently.
		period := Time(time.Millisecond) * Time(i+1)
		var tick func()
		tick = func() {
			digests[i] = digests[i]*6364136223846793005 + uint64(k.Rand().Intn(1<<30)) + uint64(k.Now())
			k.After(time.Duration(period), tick)
		}
		k.After(time.Duration(period), tick)
	}
	ls := NewLockstep(kernels, workers)
	defer ls.Close()
	barriers := 0
	ls.Run(until, window, func(end Time) { barriers++ })

	times := make([]Time, n)
	for i, k := range kernels {
		times[i] = k.Now()
	}
	return digests, times, barriers
}

func TestLockstepDeterministicAcrossWorkerCounts(t *testing.T) {
	const until, window = Time(200 * time.Millisecond), Time(10 * time.Millisecond)
	base, times, barriers := lockstepRun(4, 1, until, window)
	if barriers != 20 {
		t.Fatalf("barriers = %d, want 20 (200ms / 10ms epochs)", barriers)
	}
	for i, at := range times {
		if at != until {
			t.Fatalf("kernel %d stopped at %v, want %v", i, at, until)
		}
	}
	for _, workers := range []int{2, 4, 16} {
		got, times, barriers := lockstepRun(4, workers, until, window)
		if barriers != 20 {
			t.Fatalf("workers=%d: barriers = %d, want 20", workers, barriers)
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: kernel %d digest %x != serial %x", workers, i, got[i], base[i])
			}
			if times[i] != until {
				t.Fatalf("workers=%d: kernel %d stopped at %v", workers, i, times[i])
			}
		}
	}
}

func TestLockstepRaggedFinalEpoch(t *testing.T) {
	// until is not a multiple of window: the last epoch is clamped.
	_, times, barriers := lockstepRun(3, 2, Time(25*time.Millisecond), Time(10*time.Millisecond))
	if barriers != 3 {
		t.Fatalf("barriers = %d, want 3 (10, 20, 25ms)", barriers)
	}
	for i, at := range times {
		if at != Time(25*time.Millisecond) {
			t.Fatalf("kernel %d stopped at %v", i, at)
		}
	}
}

func TestLockstepReusableAfterClose(t *testing.T) {
	kernels := []*Kernel{NewKernel(1), NewKernel(2)}
	ls := NewLockstep(kernels, 2)
	ls.Run(Time(10*time.Millisecond), Time(5*time.Millisecond), nil)
	ls.Close()
	ls.Run(Time(20*time.Millisecond), Time(5*time.Millisecond), nil)
	ls.Close()
	for i, k := range kernels {
		if k.Now() != Time(20*time.Millisecond) {
			t.Fatalf("kernel %d at %v after reuse", i, k.Now())
		}
	}
}

func TestLockstepPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	ls := NewLockstep([]*Kernel{NewKernel(1)}, 1)
	mustPanic("zero window", func() { ls.Run(Time(time.Second), 0, nil) })

	a, b := NewKernel(1), NewKernel(2)
	a.RunUntil(Time(time.Millisecond))
	mustPanic("out-of-sync kernels", func() {
		NewLockstep([]*Kernel{a, b}, 1).Run(Time(time.Second), Time(time.Millisecond), nil)
	})
}

// TestLockstepKernelPanic: a panic in a kernel callback reaches the caller
// of Run at every worker count, as a *KernelPanic for the lowest-indexed
// kernel that panicked in the epoch whose stack still shows the failing
// callback, and Close still stops every helper.
func TestLockstepKernelPanic(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		kernels := make([]*Kernel, 4)
		for i := range kernels {
			kernels[i] = NewKernel(int64(i))
		}
		kernels[3].At(Time(3*time.Millisecond), func() { panic("kernel 3") })
		kernels[1].At(Time(3*time.Millisecond), func() { panic("kernel 1") })
		ls := NewLockstep(kernels, workers)
		barriers := 0
		got := func() (p any) {
			defer func() { p = recover() }()
			defer ls.Close()
			ls.Run(Time(10*time.Millisecond), Time(time.Millisecond), func(Time) { barriers++ })
			return nil
		}()
		kp, ok := got.(*KernelPanic)
		if !ok || kp.Kernel != 1 || kp.Value != "kernel 1" {
			t.Fatalf("workers=%d: recovered %#v, want the *KernelPanic of kernel 1", workers, got)
		}
		if !strings.Contains(string(kp.Stack), "simtime.TestLockstepKernelPanic.func") {
			t.Fatalf("workers=%d: the recorded stack misses the panicking callback:\n%s", workers, kp.Stack)
		}
		if msg := kp.Error(); !strings.Contains(msg, "kernel 1 panicked: kernel 1") || !strings.Contains(msg, string(kp.Stack)) {
			t.Fatalf("workers=%d: Error() = %q, want the kernel, the value and the stack", workers, msg)
		}
		if barriers != 2 {
			t.Fatalf("workers=%d: %d barriers ran, want 2 (the panicking epoch ends at 3ms)", workers, barriers)
		}
		if n := helpersLeft(); n != 0 {
			t.Fatalf("workers=%d: %d helper goroutines left after Close", workers, n)
		}
	}
	if err := error(&KernelPanic{Value: io.EOF}); !errors.Is(err, io.EOF) {
		t.Fatal("a *KernelPanic does not unwrap to the error its kernel panicked with")
	}
}

// helpersLeft waits up to a few seconds for every Lockstep helper goroutine
// to exit (Close returns once they are done, a moment before they are gone)
// and returns how many are still there.
func helpersLeft() int {
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := strings.Count(string(buf[:runtime.Stack(buf, true)]), "simtime.(*Lockstep).helper(")
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// stressKernels builds n kernels with uneven loads: each fires events at
// seeded random gaps whose mean doubles with the kernel's index mod 4, and
// burns a seeded random amount of CPU per event, now and then much more,
// so the kernels finish an epoch in a different order every epoch and
// some epochs outlast any spin. Every draw and firing time is mixed into
// the kernel's digest.
func stressKernels(n int) ([]*Kernel, []uint64) {
	kernels := make([]*Kernel, n)
	digests := make([]uint64, n)
	for i := range kernels {
		k := NewKernel(int64(7 + i))
		kernels[i] = k
		i := i
		mean := int64(20*time.Microsecond) << (i % 4)
		var tick func()
		tick = func() {
			x := uint64(k.Rand().Int63())
			work := x % 512
			if x%61 == 0 {
				work = 1 << 15
			}
			for j := uint64(0); j < work; j++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			digests[i] = digests[i]*31 + x + uint64(k.Now())
			k.After(time.Duration(1+k.Rand().Int63n(2*mean)), tick)
		}
		k.After(time.Duration(mean), tick)
	}
	return kernels, digests
}

// TestLockstepStress drives lockstep runs at many worker counts and checks
// every barrier's view of every kernel (events processed and digest)
// against the serial run. It covers one-epoch Run calls on one Lockstep,
// Run after Close, many fresh instances (where a helper first runs after
// its coordinator has published an epoch) and more workers than kernels.
// A watchdog turns a lost wakeup into a failure instead of a hang.
func TestLockstepStress(t *testing.T) {
	const n, epochs, fresh = 16, 24, 40
	const window = Time(time.Millisecond)
	snapshot := func(kernels []*Kernel, digests []uint64, into *[]uint64) func(Time) {
		return func(end Time) {
			for i, k := range kernels {
				*into = append(*into, k.Processed(), digests[i])
			}
			if end/window%3 == 0 {
				// A slow barrier every third epoch: the helpers' waits
				// outlast their spin and park.
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	var want []uint64
	kernels, digests := stressKernels(n)
	NewLockstep(kernels, 1).Run(epochs*window, window, snapshot(kernels, digests, &want))

	// compare checks the barrier values of a run's first epochs.
	compare := func(what string, got []uint64, firstEpochs int) error {
		if len(got) != firstEpochs*2*n {
			return fmt.Errorf("%s: %d barrier values, want %d", what, len(got), firstEpochs*2*n)
		}
		for i := range got {
			if got[i] != want[i] {
				epoch, kernel, field := i/(2*n)+1, i/2%n, [2]string{"processed", "digest"}[i%2]
				return fmt.Errorf("%s: epoch %d kernel %d %s diverged from the serial run", what, epoch, kernel, field)
			}
		}
		return nil
	}
	stress := func(workers int) error {
		kernels, digests := stressKernels(n)
		ls := NewLockstep(kernels, workers)
		var got []uint64
		for e := Time(1); e <= epochs; e++ {
			ls.Run(e*window, window, snapshot(kernels, digests, &got))
			if e == epochs/2 {
				ls.Close() // the next Run respawns the helpers
			}
		}
		ls.Close()
		if err := compare(fmt.Sprintf("workers=%d, one-epoch runs", workers), got, epochs); err != nil {
			return err
		}
		for r := 0; r < fresh; r++ {
			kernels, digests := stressKernels(n)
			ls := NewLockstep(kernels, workers)
			got = got[:0]
			ls.Run(2*window, window, snapshot(kernels, digests, &got))
			ls.Close()
			if err := compare(fmt.Sprintf("workers=%d, fresh instance %d", workers, r), got, 2); err != nil {
				return err
			}
		}
		return nil
	}

	done := make(chan error, 1)
	go func() {
		for _, workers := range []int{1, 2, 3, 4, 16, 32} {
			if err := stress(workers); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("lockstep stress still running after 10s (lost wakeup?); goroutines:\n%s", buf[:runtime.Stack(buf, true)])
	}
}
