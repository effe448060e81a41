package uisim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// flattenNow flattens the live tree with a fresh walk on every call: the
// reference the version-keyed cache must match.
func flattenNow(in *Instrumentation) []SnapView {
	var views []SnapView
	in.screen.root.walk(func(v *View) {
		views = append(views, SnapView{Class: v.Class, ID: v.ID, Desc: v.Desc, Text: v.text, Shown: v.Shown()})
	})
	return views
}

// oracleCost prices a parse of an n-view tree.
func oracleCost(in *Instrumentation, n int) time.Duration {
	return in.parseBase + time.Duration(n)*in.parsePerView
}

// oracleParse is the reference parse: flatten and price the tree on every
// call and bind a fresh completion closure.
func oracleParse(in *Instrumentation, cb func(*Snapshot)) {
	in.screen.parses.Inc()
	snap := &Snapshot{Views: flattenNow(in)}
	cost := oracleCost(in, len(snap.Views))
	in.parseCPU += time.Duration(float64(cost) * in.cpuFraction)
	in.k.After(cost, func() {
		snap.At = in.k.Now()
		cb(snap)
	})
}

// oracleWaitUntil is the reference wait loop: one oracleParse per poll.
func oracleWaitUntil(in *Instrumentation, cond func(*Snapshot) bool, timeout time.Duration, done func(WaitResult)) {
	if in.polling {
		panic("uisim: concurrent WaitUntil on one instrumentation")
	}
	in.polling = true
	deadline := in.k.Now() + timeout
	parses := 0
	var start simtime.Time
	var poll func()
	onParse := func(s *Snapshot) {
		if cond(s) {
			in.polling = false
			done(WaitResult{Observed: true, At: s.At, Parses: parses})
			return
		}
		if in.k.Now() >= deadline {
			in.polling = false
			done(WaitResult{Observed: false, At: s.At, Parses: parses})
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
		oracleParse(in, onParse)
	}
	poll()
}

// parser is one implementation of the two parse entry points.
type parser struct {
	parse func(in *Instrumentation, cb func(*Snapshot))
	wait  func(in *Instrumentation, cond func(*Snapshot) bool, timeout time.Duration, done func(WaitResult))
}

var (
	versionKeyed = parser{
		parse: (*Instrumentation).Parse,
		wait:  (*Instrumentation).WaitUntil,
	}
	perPoll = parser{parse: oracleParse, wait: oracleWaitUntil}
)

// step is one entry of a world's log: a tree mutation ('m'), a wait poll
// completion ('p') or a one-off parse completion ('q'), at a virtual time.
type step struct {
	kind byte
	at   simtime.Time
}

// equivRun is everything one world exposes: the interleaving of mutations
// and parse completions, what each parse saw, and the accounting.
type equivRun struct {
	log       []step
	seen      []Snapshot
	results   []WaitResult
	parseCPU  time.Duration
	uiParses  uint64
	processed uint64
}

// runEquivWorld drives one instrumentation through a seeded random schedule
// of waits, one-off parses and tree mutations. Mutations are aimed at the
// exact completion instant of the next poll, both ahead of that poll's
// kernel event and behind it.
func runEquivWorld(seed int64, interval time.Duration, p parser) equivRun {
	const horizon = 3 * time.Second
	k := simtime.NewKernel(seed)
	root := NewView(ClassView, "root", "")
	s := NewScreen(k, root)
	reg := obs.NewRegistry()
	s.SetObs(nil, reg)
	in := NewInstrumentation(k, s)
	in.SetPollInterval(interval)
	rng := rand.New(rand.NewSource(seed))
	var run equivRun
	for i := 0; i < 3; i++ {
		root.AddChild(NewView(ClassTextView, fmt.Sprintf("init%d", i), ""))
	}

	made := 0
	texts := []string{"", "a", "b", "done"}
	mutate := func() {
		views := root.FindAll(Signature{})
		v := views[rng.Intn(len(views))]
		switch op := rng.Intn(8); {
		case op == 0 || op == 1:
			made++
			v.AddChild(NewView(ClassTextView, fmt.Sprintf("v%d", made), ""))
		case op == 2:
			made++
			v.PrependChild(NewView(ClassButton, fmt.Sprintf("v%d", made), ""))
		case op == 3 && v.Parent() != nil:
			v.Parent().RemoveChild(v)
		case op == 4 && rng.Intn(4) == 0:
			v.ClearChildren()
		case op == 5:
			v.SetVisible(!v.Visible())
		default:
			v.SetText(texts[rng.Intn(len(texts))]) // may be a no-op
		}
		run.log = append(run.log, step{'m', k.Now()})
		if rng.Intn(10) == 0 {
			p.parse(in, func(sn *Snapshot) {
				run.log = append(run.log, step{'q', sn.At})
				run.seen = append(run.seen, Snapshot{At: sn.At, Views: append([]SnapView(nil), sn.Views...)})
			})
		}
	}
	for i := 0; i < 40; i++ {
		k.At(time.Duration(rng.Int63n(int64(horizon)/int64(time.Millisecond)))*time.Millisecond, mutate)
	}

	cond := func(sn *Snapshot) bool {
		now := k.Now()
		run.log = append(run.log, step{'p', now})
		run.seen = append(run.seen, Snapshot{At: sn.At, Views: append([]SnapView(nil), sn.Views...)})
		// The next poll starts now (back-to-back) or one interval after this
		// one started, and completes one parse of the tree as it is now.
		next := sn.At - oracleCost(in, len(sn.Views)) + interval
		if next < now {
			next = now
		}
		switch rng.Intn(6) {
		case 0: // same instant as this completion, behind it
			k.At(now, mutate)
		case 1: // the next completion instant, ahead of its event
			k.At(next+oracleCost(in, len(flattenNow(in))), mutate)
		case 2: // the next completion instant, behind its event
			k.At(next, func() {
				k.At(next, func() { k.At(next+oracleCost(in, len(flattenNow(in))), mutate) })
			})
		case 3:
			k.After(time.Duration(rng.Intn(20))*time.Millisecond, mutate)
		}
		return sn.ContainsText("done") && rng.Intn(3) == 0 || rng.Intn(200) == 0
	}
	timeouts := []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 50 * time.Millisecond, 300 * time.Millisecond, 2 * time.Second}
	var startWait func()
	startWait = func() {
		if k.Now() >= horizon {
			return
		}
		p.wait(in, cond, timeouts[rng.Intn(len(timeouts))], func(r WaitResult) {
			run.results = append(run.results, r)
			switch rng.Intn(3) {
			case 0:
				startWait() // from inside done
			case 1:
				k.At(k.Now(), startWait)
			default:
				k.After(time.Duration(rng.Intn(30))*time.Millisecond, startWait)
			}
		})
	}
	startWait()
	k.Run()
	run.parseCPU = in.ParseCPU()
	run.uiParses = reg.Counter("ui_parses").Value()
	run.processed = k.Processed()
	return run
}

// TestVersionKeyedParsesMatchPerPollOracle checks that keying the flattened
// tree and the parse cost on Screen.version changes nothing a caller or the
// kernel can see: every snapshot, wait result, accounting figure and event
// count equals the per-poll oracle's.
func TestVersionKeyedParsesMatchPerPollOracle(t *testing.T) {
	before, after, timeouts := 0, 0, 0
	for _, interval := range []time.Duration{0, 100 * time.Millisecond} {
		for seed := int64(1); seed <= 12; seed++ {
			got := runEquivWorld(seed, interval, versionKeyed)
			want := runEquivWorld(seed, interval, perPoll)
			name := fmt.Sprintf("interval %v seed %d", interval, seed)
			if !reflect.DeepEqual(got.log, want.log) {
				t.Fatalf("%s: mutation/parse interleaving differs", name)
			}
			if !reflect.DeepEqual(got.seen, want.seen) {
				t.Fatalf("%s: snapshots differ", name)
			}
			if !reflect.DeepEqual(got.results, want.results) {
				t.Fatalf("%s: wait results differ:\n got %v\nwant %v", name, got.results, want.results)
			}
			if got.parseCPU != want.parseCPU || got.uiParses != want.uiParses || got.processed != want.processed {
				t.Fatalf("%s: ParseCPU/ui_parses/Processed = %v/%d/%d, oracle %v/%d/%d", name,
					got.parseCPU, got.uiParses, got.processed, want.parseCPU, want.uiParses, want.processed)
			}
			for i := 1; i < len(got.log); i++ {
				prev, cur := got.log[i-1], got.log[i]
				if prev.at != cur.at {
					continue
				}
				if prev.kind == 'm' && cur.kind == 'p' {
					before++
				}
				if prev.kind == 'p' && cur.kind == 'm' {
					after++
				}
			}
			for _, r := range got.results {
				if !r.Observed {
					timeouts++
				}
			}
		}
	}
	// The schedules must actually exercise the cases they aim at.
	if before < 20 || after < 20 || timeouts < 20 {
		t.Fatalf("schedule coverage too thin: %d mutations just ahead of a completion, %d just behind, %d timeouts",
			before, after, timeouts)
	}
}

func TestParseSnapshotKeepsViewsAcrossMutation(t *testing.T) {
	k := simtime.NewKernel(1)
	s, root := newScreen(k)
	label := NewView(ClassTextView, "label", "")
	label.SetText("one")
	root.AddChild(label)
	extra := NewView(ClassButton, "extra", "")
	root.AddChild(extra)
	in := NewInstrumentation(k, s)

	var first, same, later *Snapshot
	in.Parse(func(sn *Snapshot) { first = sn })
	in.Parse(func(sn *Snapshot) { same = sn })
	want := flattenNow(in)
	// Mutate before either callback fires; the next parse sees a smaller
	// tree, so a rewrite in place would shorten or overwrite first.Views.
	label.SetText("two")
	root.RemoveChild(extra)
	in.Parse(func(sn *Snapshot) { later = sn })
	k.Run()

	if !reflect.DeepEqual(first.Views, want) || !reflect.DeepEqual(same.Views, want) {
		t.Fatalf("snapshots lost their parse-start views: %+v / %+v, want %+v", first.Views, same.Views, want)
	}
	if &first.Views[0] != &same.Views[0] {
		t.Fatal("two parses of one tree version flattened it twice")
	}
	if len(later.Views) != 2 || later.Find(Signature{ID: "label"}).Text != "two" {
		t.Fatalf("parse after mutation saw %+v", later.Views)
	}
}

func TestParseTimeTracksEveryMutation(t *testing.T) {
	k := simtime.NewKernel(1)
	s, root := newScreen(k)
	in := NewInstrumentation(k, s)
	panel := NewView(ClassView, "panel", "")
	label := NewView(ClassTextView, "label", "")
	steps := []struct {
		name string
		do   func()
	}{
		{"AddChild", func() { root.AddChild(panel) }},
		{"AddChild nested", func() { panel.AddChild(label) }},
		{"PrependChild", func() { panel.PrependChild(NewView(ClassButton, "b", "")) }},
		{"SetText", func() { label.SetText("hello") }},
		{"SetVisible", func() { panel.SetVisible(false) }},
		{"RemoveChild", func() { panel.RemoveChild(label) }},
		{"ClearChildren", func() { root.ClearChildren() }},
	}
	for _, st := range steps {
		in.ParseTime() // prime the cache for the old version
		st.do()
		want := flattenNow(in)
		if got := in.ParseTime(); got != oracleCost(in, len(want)) {
			t.Fatalf("after %s: ParseTime = %v, want %v", st.name, got, oracleCost(in, len(want)))
		}
		var got []SnapView
		in.Parse(func(sn *Snapshot) { got = sn.Views })
		k.Run()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s: parse saw %+v, want %+v", st.name, got, want)
		}
	}
}

func TestPollAllocatesNothing(t *testing.T) {
	k := simtime.NewKernel(1)
	s, root := newScreen(k)
	root.AddChild(NewView(ClassWebView, "page", ""))
	in := NewInstrumentation(k, s)
	never := func(*Snapshot) bool { return false }
	wait := func(timeout time.Duration) float64 {
		return testing.AllocsPerRun(5, func() {
			in.WaitUntil(never, timeout, func(WaitResult) {})
			k.Run()
		})
	}
	// About 5 polls against about 470: a per-poll allocation would show as
	// hundreds more.
	if short, long := wait(10*time.Millisecond), wait(time.Second); long > short {
		t.Fatalf("a 1s wait allocates %v times, a 10ms wait %v: polls allocate", long, short)
	}
}

func TestFiredWatchersAreDropped(t *testing.T) {
	k := simtime.NewKernel(1)
	s, root := newScreen(k)
	var order []string
	watch := func(id string) {
		s.WatchScreen(func(r *View) bool { return r.Find(Signature{ID: id}) != nil },
			func(simtime.Time) { order = append(order, id) })
	}
	for _, id := range []string{"a", "b", "c"} {
		watch(id)
	}
	root.AddChild(NewView(ClassView, "b", ""))
	k.Run()
	if len(s.watchers) != 2 {
		t.Fatalf("%d watchers kept after a draw fired one, want 2", len(s.watchers))
	}
	root.AddChild(NewView(ClassView, "c", ""))
	root.AddChild(NewView(ClassView, "a", ""))
	k.Run()
	if want := []string{"b", "a", "c"}; !reflect.DeepEqual(order, want) || len(s.watchers) != 0 {
		t.Fatalf("fired %v with %d left, want %v in registration order and none left", order, len(s.watchers), want)
	}
}
