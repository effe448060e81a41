package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// checkPrinted prints res as a run would and requires the result line to
// be correct and to carry exactly the declared metrics with their units.
func checkPrinted(t *testing.T, name string, res *result, defs []metricDef, want map[string]string) {
	t.Helper()
	var out bytes.Buffer
	code := emit(&out, res, defs)
	line, err := lastLine(out.Bytes())
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("%s: exit %d, result %+v\n%s", name, code, line, out.String())
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json declares %d", name, len(line.Metrics), len(want))
	}
	for m, unit := range want {
		got, ok := line.Metrics[m]
		if !ok || got.Unit != unit {
			t.Errorf("%s: metric %s printed as %+v (present %v), want unit %s", name, m, got, ok, unit)
		}
	}
}

// TestWorkloadsAtToySize runs every workload, untraced and traced, at a
// size that finishes in seconds, through the same functions a real run
// uses.
func TestWorkloadsAtToySize(t *testing.T) {
	e2e, layer := declared(t)
	session := sessionSpec()
	session.warmup, session.digestOps = 0, 2
	storm := stormSpec(32, 2, false)
	storm.warmup = 0
	remedy := stormSpec(32, 2, true)
	remedy.warmup = 0
	toys := []struct {
		w   workload
		cfg runConfig
	}{
		{simWorkload("session-3g", session), runConfig{seed: 1}},
		{simWorkload("storm", storm), runConfig{seed: 1}},
		{simWorkload("storm-remedy", remedy), runConfig{seed: 1}},
		{workload{name: "pipeline", run: runPipeline, trace: tracePipeline}, runConfig{seed: 1, seconds: time.Second}},
	}
	for _, toy := range toys {
		untraced := toy.w.run(toy.cfg)
		checkPrinted(t, toy.w.name, untraced, endToEnd, e2e)

		tr := newTracer()
		traced := toy.w.trace(toy.cfg, tr)
		checkPrinted(t, toy.w.name+" traced", traced, perLayer, layer)
		if traced.Digest != untraced.Digest {
			t.Errorf("%s: traced digest %s, untraced %s", toy.w.name, traced.Digest, untraced.Digest)
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := tr.writeChrome(path); err != nil {
			t.Fatal(err)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct{ TraceEvents []json.RawMessage }
		if err := json.Unmarshal(buf, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: Chrome trace has %d events (%v)", toy.w.name, len(doc.TraceEvents), err)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) ==
	// [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
