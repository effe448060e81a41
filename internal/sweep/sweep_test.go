package sweep

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func TestParseSeeds(t *testing.T) {
	cases := []struct {
		spec string
		want []int64
		err  bool
	}{
		{spec: "42", want: []int64{42}},
		{spec: "42..45", want: []int64{42, 43, 44, 45}},
		{spec: "1,5,9", want: []int64{1, 5, 9}},
		{spec: "1,10..12", want: []int64{1, 10, 11, 12}},
		{spec: "-3..-1", want: []int64{-3, -2, -1}},
		{spec: "", err: true},
		{spec: "abc", err: true},
		{spec: "5..2", err: true},
		{spec: "1,,2", err: true},
		{spec: "1..999999", err: true},
	}
	for _, c := range cases {
		got, err := ParseSeeds(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("ParseSeeds(%q): want error, got %v", c.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSeeds(%q): %v", c.spec, err)
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("ParseSeeds(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

// fakeExp builds a synthetic experiment whose Run records the seed.
func fakeExp(id string) experiments.Experiment {
	return experiments.Experiment{
		ID: id,
		Run: func(seed int64, _ experiments.Params) *experiments.Result {
			r := &experiments.Result{ID: id, Title: id}
			r.Set("seed", float64(seed))
			return r
		},
	}
}

func TestGridIsSeedMajor(t *testing.T) {
	cells := Grid([]experiments.Experiment{fakeExp("a"), fakeExp("b")}, []int64{1, 2})
	want := []string{"a/1", "b/1", "a/2", "b/2"}
	for i, c := range cells {
		if got := fmt.Sprintf("%s/%d", c.Exp.ID, c.Seed); got != want[i] {
			t.Fatalf("cell %d = %s, want %s", i, got, want[i])
		}
	}
}

// TestRunOrderingUnderParallelism: results come back in grid order with the
// right payloads even when completion order is scrambled.
func TestRunOrderingUnderParallelism(t *testing.T) {
	var exps []experiments.Experiment
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("exp%d", i)
		delay := time.Duration(5-i) * time.Millisecond // later cells finish first
		e := experiments.Experiment{ID: id, Run: func(seed int64, _ experiments.Params) *experiments.Result {
			time.Sleep(delay)
			r := &experiments.Result{ID: id, Title: id}
			r.Set("seed", float64(seed))
			return r
		}}
		exps = append(exps, e)
	}
	cells := Grid(exps, []int64{7, 8})
	results := Run(cells, Options{Workers: 4})
	if len(results) != len(cells) {
		t.Fatalf("got %d results, want %d", len(results), len(cells))
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("results[%d].Index = %d", i, r.Index)
		}
		if r.Err != nil {
			t.Fatalf("cell %d failed: %v", i, r.Err)
		}
		if r.Res.ID != cells[i].Exp.ID || r.Res.Values["seed"] != float64(cells[i].Seed) {
			t.Fatalf("cell %d: got %s/%v, want %s/%d",
				i, r.Res.ID, r.Res.Values["seed"], cells[i].Exp.ID, cells[i].Seed)
		}
	}
}

func TestPanicCapture(t *testing.T) {
	boom := experiments.Experiment{ID: "boom", Run: func(seed int64, _ experiments.Params) *experiments.Result {
		panic("kaboom")
	}}
	cells := Grid([]experiments.Experiment{fakeExp("ok"), boom, fakeExp("ok2")}, []int64{1})
	results := Run(cells, Options{Workers: 2})
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy cells failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "kaboom") {
		t.Fatalf("panic not captured: %v", results[1].Err)
	}
	if Failed(results) != 1 {
		t.Fatalf("Failed = %d, want 1", Failed(results))
	}
	out := Render(results, false)
	if !strings.Contains(out, "boom: FAILED") {
		t.Fatalf("Render missing failure marker:\n%s", out)
	}
}

func TestProgressMetricsAndOnDone(t *testing.T) {
	reg := obs.NewRegistry()
	cells := Grid([]experiments.Experiment{fakeExp("a"), fakeExp("b")}, []int64{1, 2, 3})
	var seen []int
	results := Run(cells, Options{
		Workers: 3,
		Metrics: reg,
		OnDone:  func(r Result) { seen = append(seen, r.Index) }, // serialized
	})
	if len(seen) != len(cells) {
		t.Fatalf("OnDone fired %d times, want %d", len(seen), len(cells))
	}
	snap := reg.Snapshot()
	if e, ok := snap.Get("sweep_cells_done"); !ok || e.Value != float64(len(cells)) {
		t.Fatalf("sweep_cells_done = %v (ok=%v), want %d", e.Value, ok, len(cells))
	}
	if e, ok := snap.Get("sweep_cells_failed"); !ok || e.Value != 0 {
		t.Fatalf("sweep_cells_failed = %v (ok=%v), want 0", e.Value, ok)
	}
	_ = results
}

// fastIDs is a subset of real experiments quick enough to sweep in every
// test run (and under -race, where this test doubles as the concurrency
// audit for the whole testbed stack).
var fastIDs = []string{"fig10", "fig12", "sec7.7", "faults"}

func fastExps(t *testing.T) []experiments.Experiment {
	t.Helper()
	var exps []experiments.Experiment
	for _, id := range fastIDs {
		e, ok := experiments.Lookup(id)
		if !ok {
			t.Fatalf("experiment %q missing from registry", id)
		}
		exps = append(exps, e)
	}
	return exps
}

// TestParallelMatchesSerial is the determinism golden: a parallel sweep of
// real experiments renders byte-identically to the serial sweep.
func TestParallelMatchesSerial(t *testing.T) {
	cells := Grid(fastExps(t), []int64{42, 43})
	serial := Render(Run(cells, Options{Workers: 1}), true)
	parallel := Render(Run(cells, Options{Workers: 4}), true)
	if serial != parallel {
		t.Fatal("parallel sweep output differs from serial")
	}
	if !strings.Contains(serial, "##### seed 43 #####") {
		t.Fatal("multi-seed render missing seed banner")
	}
}

// TestFullSweepGolden runs the complete registry (the `-all -seed 42`
// surface) serial vs parallel. ~1 min of work, so it is opt-in: set
// SWEEP_FULL=1 (make sweep-golden does).
func TestFullSweepGolden(t *testing.T) {
	if os.Getenv("SWEEP_FULL") == "" {
		t.Skip("set SWEEP_FULL=1 to run the full -all golden sweep")
	}
	cells := Grid(experiments.Registry(), []int64{42})
	serial := Render(Run(cells, Options{Workers: 1}), false)
	parallel := Render(Run(cells, Options{Workers: 4}), false)
	if serial != parallel {
		t.Fatal("full parallel sweep output differs from serial")
	}
}

// Stream must emit Render's exact bytes regardless of push order, flushing
// each result as soon as its grid-order predecessors are all in.
func TestStreamMatchesRender(t *testing.T) {
	cells := Grid([]experiments.Experiment{fakeExp("a"), fakeExp("b"), fakeExp("c")}, []int64{1, 2})
	results := Run(cells, Options{Workers: 2})
	for _, showSeed := range []bool{false, true} {
		want := Render(results, showSeed)
		perm := rand.New(rand.NewSource(5)).Perm(len(results))
		var buf strings.Builder
		st := NewStream(&buf, showSeed)
		for _, i := range perm {
			before := buf.Len()
			st.Push(results[i])
			// Pushing index 0 must flush immediately; later pushes flush
			// exactly when they complete a grid-order prefix.
			if i == 0 && buf.Len() == before {
				t.Fatal("pushing the first grid cell emitted nothing")
			}
		}
		if st.Err() != nil {
			t.Fatalf("stream error: %v", st.Err())
		}
		if got := buf.String(); got != want {
			t.Fatalf("showSeed=%v: stream output diverges from Render:\n got %q\nwant %q", showSeed, got, want)
		}
	}
}

// A streaming sweep (Push from OnDone) produces Render's bytes too — the
// incremental path the qoeexp CLI uses.
func TestStreamFromOnDone(t *testing.T) {
	cells := Grid([]experiments.Experiment{fakeExp("x"), fakeExp("y")}, []int64{7, 8, 9})
	var buf strings.Builder
	st := NewStream(&buf, true)
	results := Run(cells, Options{Workers: 3, OnDone: st.Push})
	if got, want := buf.String(), Render(results, true); got != want {
		t.Fatalf("streamed sweep output diverges:\n got %q\nwant %q", got, want)
	}
}
