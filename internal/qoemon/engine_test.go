package qoemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/qoestore"
)

func openStore(t testing.TB, dir string, window time.Duration) *qoestore.Store {
	t.Helper()
	s, err := qoestore.Open(dir, qoestore.Config{Window: window, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fastPairs is a test ladder scaled to minute windows: page when burn ≥ 10
// over 1m+3m, warn at ≥ 2 over 3m+6m.
func fastPairs() []BurnPair {
	return []BurnPair{
		{Short: time.Minute, Long: 3 * time.Minute, Rate: 10, Sev: SevPage},
		{Short: 3 * time.Minute, Long: 6 * time.Minute, Rate: 2, Sev: SevWarn},
	}
}

func testSLO(pairs []BurnPair) SLO {
	return SLO{Name: "rebuff", Metric: "rebuffer_ratio", Quantile: 0.95, Threshold: 0.02, Pairs: pairs}
}

// ingestWindows writes count events of the given value into each listed
// window index (minute windows).
var ingestSerial int

func ingestWindows(t testing.TB, s *qoestore.Store, cell string, value float64, count int, windows ...int64) {
	t.Helper()
	var evs []qoestore.Event
	for _, w := range windows {
		for i := 0; i < count; i++ {
			evs = append(evs, qoestore.Event{
				At:   time.Duration(w)*time.Minute + time.Duration(i+1)*time.Second,
				Cell: cell, Workload: "yt", Metric: "rebuffer_ratio", Value: value,
			})
		}
	}
	// Each call is its own emitter source: emitters restart sequence
	// numbers at 1, and the store's per-source dedup would otherwise drop
	// every batch after the first.
	ingestSerial++
	em, err := qoestore.NewEmitter(s, qoestore.EmitterConfig{Source: fmt.Sprintf("test-%s-%d", cell, ingestSerial)})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		em.Emit(ev)
	}
	em.Close()
}

func TestParseSLO(t *testing.T) {
	slo, err := ParseSLO("rebuffer_ratio p95 < 0.02")
	if err != nil {
		t.Fatal(err)
	}
	if slo.Metric != "rebuffer_ratio" || slo.Quantile != 0.95 || slo.Threshold != 0.02 {
		t.Fatalf("parsed %+v", slo)
	}
	if slo.Name != "rebuffer_ratio_p95" {
		t.Fatalf("default name %q", slo.Name)
	}
	if math.Abs(slo.Budget()-0.05) > 1e-12 {
		t.Fatalf("budget %v", slo.Budget())
	}

	named, err := ParseSLO("slow_pages: pageload_s p99.9<8")
	if err != nil {
		t.Fatal(err)
	}
	if named.Name != "slow_pages" || named.Metric != "pageload_s" ||
		math.Abs(named.Quantile-0.999) > 1e-12 || named.Threshold != 8 {
		t.Fatalf("parsed %+v", named)
	}

	for _, bad := range []string{
		"", "rebuffer_ratio", "rebuffer_ratio p95", "rebuffer_ratio q95 < 1",
		"rebuffer_ratio p0 < 1", "rebuffer_ratio p100 < 1", "m p95 < x",
		"m p95 < NaN", "m p95 < +Inf", "m p95 < -Inf",
	} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) accepted", bad)
		}
	}
}

// TestBurnRateStateMachine drives one series through ok → page → ok and
// checks the transitions, the hysteresis, and the final burn readings.
func TestBurnRateStateMachine(t *testing.T) {
	s := openStore(t, t.TempDir(), time.Minute)
	defer s.Close()
	// Windows 0..5 healthy, 6..8 fully bad, 9..12 healthy again.
	ingestWindows(t, s, "cellA", 0.001, 10, 0, 1, 2, 3, 4, 5)
	ingestWindows(t, s, "cellA", 0.50, 10, 6, 7, 8)
	ingestWindows(t, s, "cellA", 0.001, 10, 9, 10, 11, 12)

	m, err := New(s, Config{SLOs: []SLO{testSLO(fastPairs())}, ClearAfter: 2, BaselineMinHistory: 100})
	if err != nil {
		t.Fatal(err)
	}
	ev := m.Evaluate()
	if len(ev.Statuses) != 1 {
		t.Fatalf("statuses = %+v", ev.Statuses)
	}
	st := ev.Statuses[0]
	// Timeline: window 6 is all-bad → short burn 1/0.05 = 20 ≥ 10 and long
	// burn (windows 4..6: 1/3 bad) ≈ 6.7 < 10 — but the warn pair (3m+6m)
	// fires first as bad mass accumulates; window 7 pushes the page pair
	// over on both sides. The exact ladder matters less than the shape:
	// up to page while bad, back down after ≥2 calm windows.
	var states []string
	for _, tr := range st.Transitions {
		states = append(states, tr.From.String()+">"+tr.To.String())
	}
	if st.State != SevOK {
		t.Fatalf("final state %v after recovery, transitions %v", st.State, states)
	}
	joined := strings.Join(states, " ")
	if !strings.Contains(joined, ">page") {
		t.Fatalf("never paged: %v", joined)
	}
	if st.Transitions[len(st.Transitions)-1].To != SevOK {
		t.Fatalf("last transition %v", st.Transitions)
	}
	// Hysteresis: the step-down happens no earlier than 2 calm windows
	// after the last bad one (window 8), i.e. at window ≥ 10.
	down := st.Transitions[len(st.Transitions)-1]
	if down.Index < 10 {
		t.Fatalf("stepped down at window %d, before hysteresis elapsed", down.Index)
	}
	// Latest window readings are present for both pairs.
	if len(st.Burns) != 2 || st.Burns[0].Firing || st.Burns[1].Firing {
		t.Fatalf("latest burns = %+v", st.Burns)
	}
}

// TestPageEntersImmediately: a single fully-bad window trips a one-window
// ladder with no warm-up — step-up has no hysteresis.
func TestPageEntersImmediately(t *testing.T) {
	s := openStore(t, t.TempDir(), time.Minute)
	defer s.Close()
	ingestWindows(t, s, "cellA", 0.5, 5, 0)
	pairs := []BurnPair{{Short: time.Minute, Long: time.Minute, Rate: 14.4, Sev: SevPage}}
	m, err := New(s, Config{SLOs: []SLO{testSLO(pairs)}, BaselineMinHistory: 100})
	if err != nil {
		t.Fatal(err)
	}
	ev := m.Evaluate()
	if len(ev.Alerts) != 1 || ev.Alerts[0].State != SevPage {
		t.Fatalf("alerts = %+v", ev.Alerts)
	}
	if ev.Alerts[0].SinceIndex != 0 {
		t.Fatalf("page since window %d, want 0", ev.Alerts[0].SinceIndex)
	}
}

// TestBaselineRegressionWarns: burn pairs that cannot fire, a flat history,
// then a 10× regression in the latest window — the MAD check alone must
// raise warn.
func TestBaselineRegressionWarns(t *testing.T) {
	s := openStore(t, t.TempDir(), time.Minute)
	defer s.Close()
	for w := int64(0); w < 8; w++ {
		ingestWindows(t, s, "cellA", 0.004+float64(w%2)*0.0005, 5, w)
	}
	ingestWindows(t, s, "cellA", 0.015, 5, 8) // regressed but below SLO threshold
	// Threshold 0.02: nothing is ever "bad", so burn rates stay 0.
	m, err := New(s, Config{SLOs: []SLO{testSLO(fastPairs())}, BaselineMinHistory: 4})
	if err != nil {
		t.Fatal(err)
	}
	ev := m.Evaluate()
	if len(ev.Alerts) != 1 || ev.Alerts[0].State != SevWarn {
		t.Fatalf("alerts = %+v", ev.Alerts)
	}
	base := ev.Alerts[0].Baseline
	if !base.Regressed || base.Current <= base.Limit || base.History < 4 {
		t.Fatalf("baseline = %+v", base)
	}
}

// TestEvaluateDeterministicAcrossRestart: the full evaluation (and the
// HTTP bodies built from it) must be byte-identical after a store restart
// replays the WAL.
func TestEvaluateDeterministicAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, time.Minute)
	ingestWindows(t, s, "cellA", 0.001, 10, 0, 1, 2)
	ingestWindows(t, s, "cellA", 0.5, 10, 3, 4)
	ingestWindows(t, s, "cellB", 0.002, 4, 0, 1, 2, 3, 4)

	cfg := Config{SLOs: []SLO{testSLO(fastPairs())}, BaselineMinHistory: 100}
	bodies := func(st *qoestore.Store) map[string]string {
		m, err := New(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		m.Mount(mux)
		out := map[string]string{}
		for _, path := range []string{"/slo", "/alerts", "/attrib"} {
			rr := httptest.NewRecorder()
			mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
			if rr.Code != 200 {
				t.Fatalf("%s = %d", path, rr.Code)
			}
			out[path] = rr.Body.String()
		}
		return out
	}

	first := bodies(s)
	again := bodies(s)
	for path := range first {
		if first[path] != again[path] {
			t.Fatalf("%s differs between evaluations on the same store", path)
		}
	}
	s.Close()

	replayed := openStore(t, dir, time.Minute)
	defer replayed.Close()
	after := bodies(replayed)
	for path := range first {
		if first[path] != after[path] {
			t.Fatalf("%s differs after WAL replay:\nbefore: %s\nafter:  %s", path, first[path], after[path])
		}
	}
}

// TestMountAlertFilter: /alerts?state=page filters, and alert JSON decodes
// back into Status (qoewatch's consumption path).
func TestMountAlertFilter(t *testing.T) {
	s := openStore(t, t.TempDir(), time.Minute)
	defer s.Close()
	ingestWindows(t, s, "cellA", 0.5, 5, 0)
	pairs := []BurnPair{{Short: time.Minute, Long: time.Minute, Rate: 14.4, Sev: SevPage}}
	m, err := New(s, Config{SLOs: []SLO{testSLO(pairs)}, BaselineMinHistory: 100})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	m.Mount(mux)

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/alerts?state=page", nil))
	var resp struct {
		Alerts []Status `json:"alerts"`
	}
	if err := json.NewDecoder(bytes.NewReader(rr.Body.Bytes())).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Alerts) != 1 || resp.Alerts[0].State != SevPage || resp.Alerts[0].SLO != "rebuff" {
		t.Fatalf("filtered alerts = %+v", resp.Alerts)
	}
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/alerts?state=warn", nil))
	if err := json.NewDecoder(bytes.NewReader(rr.Body.Bytes())).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Alerts) != 0 {
		t.Fatalf("warn filter returned %+v", resp.Alerts)
	}
}

func TestMonitorConfigValidation(t *testing.T) {
	s := openStore(t, t.TempDir(), time.Minute)
	defer s.Close()
	if _, err := New(nil, Config{SLOs: []SLO{testSLO(nil)}}); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := New(s, Config{}); err == nil {
		t.Fatal("empty SLO set accepted")
	}
	dup := []SLO{testSLO(nil), testSLO(nil)}
	if _, err := New(s, Config{SLOs: dup}); err == nil {
		t.Fatal("duplicate SLO names accepted")
	}
	bad := testSLO(nil)
	bad.Quantile = 1.5
	if _, err := New(s, Config{SLOs: []SLO{bad}}); err == nil {
		t.Fatal("quantile 1.5 accepted")
	}
}

func TestMedianAndBaseline(t *testing.T) {
	if m := median(nil); m != 0 {
		t.Fatalf("median(nil) = %v", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	// Below min history: never regresses.
	st := baseline([]float64{1, 2}, 100, 5, 6)
	if st.Regressed {
		t.Fatalf("regressed with %d history", st.History)
	}
	// Flat nonzero history: 20%% headroom.
	st = baseline([]float64{1, 1, 1, 1, 1, 1}, 1.1, 5, 6)
	if st.Regressed {
		t.Fatalf("+10%% over flat history regressed: %+v", st)
	}
	st = baseline([]float64{1, 1, 1, 1, 1, 1}, 1.3, 5, 6)
	if !st.Regressed {
		t.Fatalf("+30%% over flat history did not regress: %+v", st)
	}
	// All-zero history: any increase regresses.
	st = baseline([]float64{0, 0, 0, 0, 0, 0}, 0.01, 5, 6)
	if !st.Regressed {
		t.Fatalf("nonzero over zero history did not regress: %+v", st)
	}
}
