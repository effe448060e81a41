package uisim

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

func newScreen(k *simtime.Kernel) (*Screen, *View) {
	root := NewView(ClassView, "root", "")
	return NewScreen(k, root), root
}

func TestViewTreeBasics(t *testing.T) {
	k := simtime.NewKernel(1)
	_, root := newScreen(k)
	list := NewView(ClassListView, "feed", "news feed")
	root.AddChild(list)
	a := NewView(ClassTextView, "item", "")
	b := NewView(ClassTextView, "item", "")
	list.AddChild(a)
	list.PrependChild(b)
	if list.Children()[0] != b || list.Children()[1] != a {
		t.Fatal("PrependChild order wrong")
	}
	if n := len(root.FindAll(Signature{})); n != 4 {
		t.Fatalf("tree has %d views, want 4", n)
	}
	list.RemoveChild(a)
	if len(root.FindAll(Signature{})) != 3 || a.Parent() != nil {
		t.Fatal("RemoveChild failed")
	}
	list.ClearChildren()
	if len(list.Children()) != 0 || b.Parent() != nil {
		t.Fatal("ClearChildren failed")
	}
}

func TestDoubleAttachPanics(t *testing.T) {
	k := simtime.NewKernel(1)
	_, root := newScreen(k)
	v := NewView(ClassTextView, "x", "")
	root.AddChild(v)
	defer func() {
		if recover() == nil {
			t.Fatal("attaching an attached view did not panic")
		}
	}()
	root.AddChild(v)
}

func TestSignatureMatching(t *testing.T) {
	v := NewView(ClassButton, "com.facebook:id/post", "post button")
	cases := []struct {
		sig  Signature
		want bool
	}{
		{Signature{Class: ClassButton}, true},
		{Signature{ID: "com.facebook:id/post"}, true},
		{Signature{Desc: "post button"}, true},
		{Signature{Class: ClassButton, ID: "com.facebook:id/post", Desc: "post button"}, true},
		{Signature{}, true},
		{Signature{Class: ClassTextView}, false},
		{Signature{ID: "other"}, false},
	}
	for i, c := range cases {
		if got := v.Matches(c.sig); got != c.want {
			t.Errorf("case %d: Matches(%v) = %v", i, c.sig, got)
		}
	}
}

func TestFindDFSOrder(t *testing.T) {
	k := simtime.NewKernel(1)
	_, root := newScreen(k)
	first := NewView(ClassTextView, "dup", "")
	second := NewView(ClassTextView, "dup", "")
	root.AddChild(first)
	root.AddChild(second)
	if got := root.Find(Signature{ID: "dup"}); got != first {
		t.Fatal("Find did not return first DFS match")
	}
	if all := root.FindAll(Signature{ID: "dup"}); len(all) != 2 {
		t.Fatalf("FindAll found %d, want 2", len(all))
	}
	if root.Find(Signature{ID: "absent"}) != nil {
		t.Fatal("Find invented a view")
	}
}

func TestShownRespectsAncestors(t *testing.T) {
	k := simtime.NewKernel(1)
	_, root := newScreen(k)
	panel := NewView(ClassView, "panel", "")
	label := NewView(ClassTextView, "label", "")
	root.AddChild(panel)
	panel.AddChild(label)
	if !label.Shown() {
		t.Fatal("visible chain not shown")
	}
	panel.SetVisible(false)
	if label.Shown() {
		t.Fatal("child shown under hidden ancestor")
	}
	if !label.Visible() {
		t.Fatal("own visibility should be untouched")
	}
}

func TestDrawHappensAfterMutation(t *testing.T) {
	k := simtime.NewKernel(1)
	s, root := newScreen(k)
	bar := NewView(ClassProgressBar, "bar", "")
	bar.SetVisible(false)
	root.AddChild(bar)
	k.RunUntil(100 * time.Millisecond)

	var screenAt simtime.Time = -1
	s.WatchScreen(func(r *View) bool {
		b := r.Find(Signature{ID: "bar"})
		return b != nil && b.Shown()
	}, func(at simtime.Time) { screenAt = at })

	mutateAt := k.Now()
	bar.SetVisible(true)
	k.RunUntil(time.Second)
	if screenAt < 0 {
		t.Fatal("screen never showed the change")
	}
	lag := time.Duration(screenAt - mutateAt)
	if lag <= 0 || lag > 2*FramePeriod+12*time.Millisecond {
		t.Fatalf("draw lag = %v, want within ~2 frames", lag)
	}
	if s.DrawnVersion() != s.Version() {
		t.Fatal("drawn version lagging after draw")
	}
}

func TestBatchedMutationsOneDraw(t *testing.T) {
	k := simtime.NewKernel(2)
	s, root := newScreen(k)
	draws := 0
	s.OnDraw(func(simtime.Time) { draws++ })
	for i := 0; i < 10; i++ {
		root.AddChild(NewView(ClassTextView, "t", ""))
	}
	k.Run()
	if draws != 1 {
		t.Fatalf("draws = %d, want 1 for a burst of mutations", draws)
	}
}

func TestWatchScreenAlreadyTrue(t *testing.T) {
	k := simtime.NewKernel(1)
	s, root := newScreen(k)
	root.AddChild(NewView(ClassButton, "b", ""))
	k.Run()
	fired := false
	s.WatchScreen(func(r *View) bool { return r.Find(Signature{ID: "b"}) != nil },
		func(simtime.Time) { fired = true })
	if !fired {
		t.Fatal("watcher on already-true condition did not fire immediately")
	}
}

func TestSnapshotReflectsParseStartState(t *testing.T) {
	k := simtime.NewKernel(1)
	s, root := newScreen(k)
	label := NewView(ClassTextView, "label", "")
	label.SetText("before")
	root.AddChild(label)
	in := NewInstrumentation(k, s)
	var got string
	in.Parse(func(snap *Snapshot) { got = snap.Find(Signature{ID: "label"}).Text })
	// Mutate after the parse begins but before it completes.
	label.SetText("after")
	k.Run()
	if got != "before" {
		t.Fatalf("snapshot text = %q, want state at parse start", got)
	}
}

func TestWaitUntilObservesChange(t *testing.T) {
	k := simtime.NewKernel(3)
	s, root := newScreen(k)
	bar := NewView(ClassProgressBar, "bar", "")
	root.AddChild(bar)
	in := NewInstrumentation(k, s)

	var hideAt simtime.Time
	k.After(500*time.Millisecond, func() {
		hideAt = k.Now()
		bar.SetVisible(false)
	})
	var res WaitResult
	in.WaitUntil(func(sn *Snapshot) bool { return !sn.VisibleMatch(Signature{ID: "bar"}) },
		5*time.Second, func(r WaitResult) { res = r })
	k.Run()
	if !res.Observed {
		t.Fatal("change not observed")
	}
	tm := time.Duration(res.At - hideAt)
	// t_m - t_ui = t_offset + t_parsing, bounded by 2 parse times.
	if tm <= 0 || tm > 2*in.ParseTime()+time.Millisecond {
		t.Fatalf("measurement delay = %v, want within 2 parse times (%v)", tm, in.ParseTime())
	}
	if res.Parses < 100 { // ~500ms / ~2.2ms parse
		t.Fatalf("parses = %d, expected continuous polling", res.Parses)
	}
}

func TestWaitUntilTimeout(t *testing.T) {
	k := simtime.NewKernel(4)
	s, _ := newScreen(k)
	in := NewInstrumentation(k, s)
	var res WaitResult
	in.WaitUntil(func(*Snapshot) bool { return false }, 200*time.Millisecond,
		func(r WaitResult) { res = r })
	k.Run()
	if res.Observed {
		t.Fatal("observed impossible condition")
	}
	if res.At < 200*time.Millisecond {
		t.Fatalf("gave up at %v, before the timeout", res.At)
	}
}

func TestConcurrentWaitPanics(t *testing.T) {
	k := simtime.NewKernel(5)
	s, _ := newScreen(k)
	in := NewInstrumentation(k, s)
	in.WaitUntil(func(*Snapshot) bool { return false }, time.Second, func(WaitResult) {})
	defer func() {
		if recover() == nil {
			t.Fatal("concurrent WaitUntil did not panic")
		}
	}()
	in.WaitUntil(func(*Snapshot) bool { return false }, time.Second, func(WaitResult) {})
}

func TestClickDispatch(t *testing.T) {
	k := simtime.NewKernel(6)
	s, root := newScreen(k)
	btn := NewView(ClassButton, "post", "post button")
	clickedAt := simtime.Time(-1)
	btn.OnClick = func() { clickedAt = k.Now() }
	root.AddChild(btn)
	in := NewInstrumentation(k, s)
	start, err := in.Click(Signature{ID: "post"})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if clickedAt < start {
		t.Fatal("click arrived before injection")
	}
	if clickedAt-start > 5*time.Millisecond {
		t.Fatalf("input latency %v too large", clickedAt-start)
	}
}

func TestClickErrors(t *testing.T) {
	k := simtime.NewKernel(7)
	s, root := newScreen(k)
	in := NewInstrumentation(k, s)
	if _, err := in.Click(Signature{ID: "missing"}); err == nil {
		t.Fatal("click on missing view succeeded")
	}
	label := NewView(ClassTextView, "label", "")
	root.AddChild(label)
	if _, err := in.Click(Signature{ID: "label"}); err == nil {
		t.Fatal("click on non-clickable view succeeded")
	}
	hidden := NewView(ClassButton, "hidden", "")
	hidden.OnClick = func() {}
	hidden.SetVisible(false)
	root.AddChild(hidden)
	if _, err := in.Click(Signature{ID: "hidden"}); err == nil {
		t.Fatal("click on hidden view succeeded")
	}
}

func TestScrollAndTextAndEnter(t *testing.T) {
	k := simtime.NewKernel(8)
	s, root := newScreen(k)
	list := NewView(ClassListView, "feed", "")
	gotDy := 0
	list.OnScroll = func(dy int) { gotDy = dy }
	url := NewView(ClassEditText, "url", "")
	entered := false
	url.OnEnter = func() { entered = true }
	root.AddChild(list)
	root.AddChild(url)
	in := NewInstrumentation(k, s)
	if _, err := in.Scroll(Signature{ID: "feed"}, 300); err != nil {
		t.Fatal(err)
	}
	if _, err := in.EnterText(Signature{ID: "url"}, "http://example.com"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.PressEnter(Signature{ID: "url"}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if gotDy != 300 || url.Text() != "http://example.com" || !entered {
		t.Fatalf("dispatch failed: dy=%d text=%q entered=%v", gotDy, url.Text(), entered)
	}
}

func TestParseCostGrowsWithTree(t *testing.T) {
	k := simtime.NewKernel(9)
	s, root := newScreen(k)
	in := NewInstrumentation(k, s)
	small := in.ParseTime()
	for i := 0; i < 200; i++ {
		root.AddChild(NewView(ClassTextView, "t", ""))
	}
	if in.ParseTime() <= small {
		t.Fatal("parse time did not grow with tree size")
	}
}

func TestParseCPUAccumulates(t *testing.T) {
	k := simtime.NewKernel(10)
	s, _ := newScreen(k)
	in := NewInstrumentation(k, s)
	in.WaitUntil(func(*Snapshot) bool { return false }, 100*time.Millisecond, func(WaitResult) {})
	k.Run()
	// Polling spans ~100ms of wall time; the CPU share is cpuFraction of it.
	if got := in.ParseCPU(); got < 3*time.Millisecond || got > 10*time.Millisecond {
		t.Fatalf("ParseCPU = %v, want ~5%% of the 100ms polling window", got)
	}
}

func TestWatchScreenFiresOnlyOnce(t *testing.T) {
	k := simtime.NewKernel(11)
	s, root := newScreen(k)
	bar := NewView(ClassProgressBar, "bar", "")
	bar.SetVisible(false)
	root.AddChild(bar)
	k.Run()
	fired := 0
	s.WatchScreen(func(r *View) bool {
		v := r.Find(Signature{ID: "bar"})
		return v != nil && v.Shown()
	}, func(simtime.Time) { fired++ })
	// Toggle visibility repeatedly: the one-shot watcher fires once.
	for i := 0; i < 3; i++ {
		bar.SetVisible(true)
		k.Run()
		bar.SetVisible(false)
		k.Run()
	}
	if fired != 1 {
		t.Fatalf("watcher fired %d times, want 1", fired)
	}
}

func TestDetachedMutationNoDraw(t *testing.T) {
	k := simtime.NewKernel(12)
	s, _ := newScreen(k)
	draws := 0
	s.OnDraw(func(simtime.Time) { draws++ })
	orphan := NewView(ClassTextView, "orphan", "")
	orphan.SetText("mutating while detached")
	orphan.SetVisible(false)
	k.Run()
	if draws != 0 {
		t.Fatalf("detached mutation caused %d draws", draws)
	}
}

func TestPollIntervalSpacesPolls(t *testing.T) {
	k := simtime.NewKernel(13)
	s, _ := newScreen(k)
	in := NewInstrumentation(k, s)
	in.SetPollInterval(100 * time.Millisecond)
	var res WaitResult
	in.WaitUntil(func(*Snapshot) bool { return false }, time.Second,
		func(r WaitResult) { res = r })
	k.Run()
	// ~1s window at 100ms cadence: about 10-11 polls, far fewer than the
	// hundreds continuous polling would make.
	if res.Parses < 8 || res.Parses > 13 {
		t.Fatalf("parses = %d with 100ms interval over 1s", res.Parses)
	}
}

func TestEnterTextOnHiddenViewFails(t *testing.T) {
	k := simtime.NewKernel(14)
	s, root := newScreen(k)
	box := NewView(ClassEditText, "box", "")
	box.SetVisible(false)
	root.AddChild(box)
	in := NewInstrumentation(k, s)
	if _, err := in.EnterText(Signature{ID: "box"}, "x"); err == nil {
		t.Fatal("typed into a hidden view")
	}
	if _, err := in.Scroll(Signature{ID: "box"}, 10); err == nil {
		t.Fatal("scrolled a hidden, non-scrollable view")
	}
	if _, err := in.PressEnter(Signature{ID: "box"}); err == nil {
		t.Fatal("pressed enter on a hidden view")
	}
}
