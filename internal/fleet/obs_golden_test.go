package fleet_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core/analyzer"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// obsRun plays one fixed-seed YouTube video with every observability sink
// attached and returns the Chrome-trace export, the metrics NDJSON export,
// and the analyzer's cross-layer view (trace cross-check included).
func obsRun(t *testing.T, seed int64) (chrome, ndjson []byte, cl *analyzer.CrossLayer) {
	t.Helper()
	b := fleet.MustOneUE(seed, nil, fleet.UESpec{}, fleet.WithTrace(), fleet.WithMetrics())
	b.YouTube.Connect()
	b.K.RunUntil(2 * time.Second)

	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.YouTube.Screen, log)
	c.Timeout = 30 * time.Minute
	c.Instrumentation().SetPollInterval(100 * time.Millisecond)
	d := &controller.YouTubeDriver{C: c}
	done := false
	d.SearchAndPlay("g", 3, func(controller.WatchStats) { done = true })
	b.K.RunUntil(b.K.Now() + 20*time.Minute)
	if !done {
		t.Fatal("playback did not finish")
	}
	b.CloseObs()

	var cbuf, nbuf bytes.Buffer
	if err := obs.WriteChromeTrace(&cbuf, b.Trace.Events()); err != nil {
		t.Fatal(err)
	}
	if err := b.Metrics.Snapshot().WriteNDJSON(&nbuf); err != nil {
		t.Fatal(err)
	}
	return cbuf.Bytes(), nbuf.Bytes(), analyzer.NewCrossLayer(b.Session(log))
}

// TestObsGoldenDeterminism is the determinism guard for the whole obs layer:
// a fixed-seed run must export byte-identical Chrome-trace JSON and metrics
// NDJSON every time, and across commits (both digests are pinned).
func TestObsGoldenDeterminism(t *testing.T) {
	chrome1, ndjson1, _ := obsRun(t, 42)
	chrome2, ndjson2, _ := obsRun(t, 42)
	if !bytes.Equal(chrome1, chrome2) {
		t.Error("Chrome trace export differs between identical runs")
	}
	if !bytes.Equal(ndjson1, ndjson2) {
		t.Error("metrics NDJSON export differs between identical runs")
	}
	checkDigest(t, "obs-youtube/trace", chrome1)
	checkDigest(t, "obs-youtube/metrics", ndjson1)
}

// TestObsTraceCoverage checks the acceptance criterion for the trace bus: a
// run emits valid Chrome trace_event JSON holding spans from all five layers,
// with correlation IDs shared across layers.
func TestObsTraceCoverage(t *testing.T) {
	chrome, ndjson, cl := obsRun(t, 42)

	var doc struct {
		TraceEvents []struct {
			Ph   string                 `json:"ph"`
			Tid  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}

	spanLayers := map[int]bool{}
	idLayers := map[uint64]map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" && ev.Ph != "i" {
			continue
		}
		if ev.Ph == "X" {
			spanLayers[ev.Tid] = true
		}
		if idv, ok := ev.Args["id"].(float64); ok && idv > 0 {
			id := uint64(idv)
			if idLayers[id] == nil {
				idLayers[id] = map[int]bool{}
			}
			idLayers[id][ev.Tid] = true
		}
	}
	for tid := 1; tid <= 5; tid++ {
		if !spanLayers[tid] {
			t.Errorf("no span from layer track %d in the trace", tid)
		}
	}
	shared := 0
	for _, tids := range idLayers {
		if len(tids) >= 3 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no correlation ID shared by >= 3 layers")
	}

	// The snapshot must carry the core per-layer instruments.
	for _, name := range []string{"kernel_events", "rlc_pdus", "tcp_connects", "ui_draws", "yt_playbacks"} {
		if !bytes.Contains(ndjson, []byte(`"name":"`+name+`"`)) {
			t.Errorf("metrics snapshot missing %s", name)
		}
	}

	// The analyzer's trace cross-check ran against ground truth and must not
	// disagree on a clean fixed-seed run. (Other warnings — e.g. simulated
	// QxDM capture loss — are legitimate data-quality notes, not
	// disagreements.)
	for _, w := range cl.Warnings {
		if strings.HasPrefix(w, "trace cross-check") {
			t.Errorf("trace cross-check disagreement: %s", w)
		}
	}
}
