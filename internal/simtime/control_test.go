package simtime

import (
	"testing"
	"time"
)

// TestControlHookFiresBetweenEvents: the hook runs at every multiple of its
// interval with the clock set to the firing time, before any event at the
// same instant, and never touches the processed-event counter.
func TestControlHookFiresBetweenEvents(t *testing.T) {
	k := NewKernel(1)
	var trail []string
	k.At(2*time.Second, func() { trail = append(trail, "ev@2s") })
	k.At(3*time.Second, func() { trail = append(trail, "ev@3s") })
	var hookTimes []Time
	k.SetControlHook(Time(time.Second), func(now Time) {
		if k.Now() != now {
			t.Fatalf("clock %v != hook time %v", k.Now(), now)
		}
		hookTimes = append(hookTimes, now)
		trail = append(trail, "hook@"+time.Duration(now).String())
	})
	k.RunUntil(Time(3 * time.Second))

	wantTrail := []string{"hook@1s", "hook@2s", "ev@2s", "hook@3s", "ev@3s"}
	if len(trail) != len(wantTrail) {
		t.Fatalf("trail = %v, want %v", trail, wantTrail)
	}
	for i := range trail {
		if trail[i] != wantTrail[i] {
			t.Fatalf("trail = %v, want %v", trail, wantTrail)
		}
	}
	if k.Processed() != 2 {
		t.Fatalf("processed = %d, want 2 (hook firings are not events)", k.Processed())
	}

	// The hook keeps firing on later RunUntil calls from where it left off.
	k.RunUntil(Time(5 * time.Second))
	if len(hookTimes) != 5 || hookTimes[4] != Time(5*time.Second) {
		t.Fatalf("hook times after second run = %v", hookTimes)
	}
}

// TestControlHookScheduling: a hook may schedule events; they run at their
// own time like any other event.
func TestControlHookScheduling(t *testing.T) {
	k := NewKernel(1)
	fired := map[time.Duration]bool{}
	k.SetControlHook(Time(2*time.Second), func(now Time) {
		if now == Time(2*time.Second) {
			k.After(500*time.Millisecond, func() { fired[time.Duration(k.Now())] = true })
		}
	})
	k.RunUntil(Time(4 * time.Second))
	if !fired[2500*time.Millisecond] {
		t.Fatalf("hook-scheduled event did not fire: %v", fired)
	}
	if k.Now() != Time(4*time.Second) {
		t.Fatalf("clock = %v, want 4s", k.Now())
	}
}

// TestControlHookRemoveAndPanic: nil removes the hook; a non-positive
// interval panics.
func TestControlHookRemoveAndPanic(t *testing.T) {
	k := NewKernel(1)
	calls := 0
	k.SetControlHook(Time(time.Second), func(Time) { calls++ })
	k.RunUntil(Time(2 * time.Second))
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	k.SetControlHook(0, nil)
	k.RunUntil(Time(10 * time.Second))
	if calls != 2 {
		t.Fatalf("hook fired after removal: calls = %d", calls)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("SetControlHook(0, fn) did not panic")
		}
	}()
	k.SetControlHook(0, func(Time) {})
}

// TestControlHookIgnoredByRun: run-to-drain ignores the hook (it would
// otherwise never stop firing).
func TestControlHookIgnoredByRun(t *testing.T) {
	k := NewKernel(1)
	calls := 0
	k.SetControlHook(Time(time.Second), func(Time) { calls++ })
	k.After(3*time.Second, func() {})
	k.Run()
	if calls != 0 {
		t.Fatalf("Run fired the control hook %d times", calls)
	}
}

// TestControlHookMidRunPhase: a hook installed off a multiple of its
// interval first fires at the next multiple, and one installed exactly on
// a multiple skips the instant it was installed at (a hook there may
// already have fired).
func TestControlHookMidRunPhase(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(Time(1500 * time.Millisecond))
	var at []Time
	k.SetControlHook(Time(2*time.Second), func(now Time) { at = append(at, now) })
	k.RunUntil(Time(6 * time.Second))
	if len(at) != 3 || at[0] != Time(2*time.Second) || at[2] != Time(6*time.Second) {
		t.Fatalf("hook installed at 1.5s fired at %v, want [2s 4s 6s]", at)
	}

	at = nil
	k.SetControlHook(Time(2*time.Second), func(now Time) { at = append(at, now) })
	k.RunUntil(Time(8 * time.Second))
	if len(at) != 1 || at[0] != Time(8*time.Second) {
		t.Fatalf("hook reinstalled at 6s fired at %v, want [8s]", at)
	}
}
