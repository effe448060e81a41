package simtime

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// appendArg is a bound AtWith callback: it records the int its argument
// points at.
type appendArg struct{ order []int }

func (a *appendArg) fire(arg any) { a.order = append(a.order, *arg.(*int)) }

// TestAtWithSharesAtOrdering: At and AtWith events at one instant fire in
// the order they were scheduled, whichever entry point scheduled them.
func TestAtWithSharesAtOrdering(t *testing.T) {
	k := NewKernel(1)
	rec := &appendArg{}
	fire := rec.fire
	ids := make([]int, 8)
	for i := range ids {
		ids[i] = i
		if i%2 == 0 {
			k.AtWith(time.Second, fire, &ids[i])
		} else {
			i := i
			k.At(time.Second, func() { rec.order = append(rec.order, i) })
		}
	}
	k.AfterWith(-time.Second, fire, &ids[0]) // a negative delay fires now
	k.Run()
	want := []int{0, 0, 1, 2, 3, 4, 5, 6, 7}
	if len(rec.order) != len(want) {
		t.Fatalf("fired %v, want %v", rec.order, want)
	}
	for i := range want {
		if rec.order[i] != want[i] {
			t.Fatalf("fired %v, want %v", rec.order, want)
		}
	}
}

// TestAtWithHandles: Cancel, Pending, When and a stale handle behave for an
// AtWith event exactly as for an At event.
func TestAtWithHandles(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	count := func(arg any) { fired += *arg.(*int) }
	one := 1

	ev := k.AtWith(2*time.Second, count, &one)
	if !ev.Pending() || ev.When() != 2*time.Second {
		t.Fatalf("fresh handle: Pending %v When %v", ev.Pending(), ev.When())
	}
	if k.Pending() != 1 {
		t.Fatalf("kernel Pending = %d, want 1", k.Pending())
	}
	ev.Cancel()
	if !ev.Canceled() || ev.Pending() || k.Pending() != 0 {
		t.Fatalf("after Cancel: Canceled %v Pending %v kernel %d", ev.Canceled(), ev.Pending(), k.Pending())
	}
	k.Run()
	if fired != 0 {
		t.Fatal("canceled AtWith event fired")
	}

	// The collected shell is reused; the old handle is stale and inert.
	ev2 := k.AfterWith(time.Second, count, &one)
	if ev2.e != ev.e {
		t.Fatal("AfterWith did not reuse the pooled shell")
	}
	ev.Cancel()
	if ev.When() != 0 || ev.Canceled() || !ev2.Pending() {
		t.Fatal("stale handle touched the shell's new occupant")
	}
	k.Run()
	if fired != 1 || ev2.Pending() || ev2.When() != 0 {
		t.Fatalf("fired %d, Pending after fire %v, When after fire %v", fired, ev2.Pending(), ev2.When())
	}
	if ev.e.arg != nil || ev.e.fnArg != nil {
		t.Fatal("a recycled shell still holds its argument")
	}
}

// namedArgSite is a top-level AtWith callback with a fixed symbol.
func namedArgSite(any) {}

// TestAtWithProfilerSite: the profiler names an AtWith callback by its bound
// function's symbol, as it names an At closure.
func TestAtWithProfilerSite(t *testing.T) {
	k := NewKernel(1)
	prof := obs.NewProfiler()
	k.SetProfiler(prof)
	rec := &appendArg{}
	n := 3
	k.AfterWith(time.Second, namedArgSite, nil)
	k.AfterWith(time.Second, rec.fire, &n)
	k.AfterWith(2*time.Second, rec.fire, &n)
	k.Run()
	got := map[string]uint64{}
	for _, s := range prof.Sites() {
		got[s.Site] = s.Count
	}
	for site, want := range map[string]uint64{
		"repro/internal/simtime.namedArgSite":         1,
		"repro/internal/simtime.(*appendArg).fire-fm": 2,
	} {
		if got[site] != want {
			t.Errorf("site %q fired %d times, want %d (sites %v)", site, got[site], want, got)
		}
	}
}

// TestAfterWithAllocatesNothing: once the free list is warm, scheduling an
// AfterWith event with a pointer argument and firing it allocates nothing.
func TestAfterWithAllocatesNothing(t *testing.T) {
	k := NewKernel(1)
	hits := 0
	fn := func(arg any) { hits += *arg.(*int) }
	one := 1
	k.AfterWith(time.Millisecond, fn, &one)
	k.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		k.AfterWith(time.Millisecond, fn, &one)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("AfterWith+fire allocates %.1f objects, want 0", allocs)
	}
	if hits != 1002 {
		t.Fatalf("fired %d times, want 1002", hits)
	}
}
