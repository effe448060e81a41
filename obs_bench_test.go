// Observability-layer benchmarks: the cost of a standard testbed run with
// no obs sink attached (the default — instrumentation reduced to nil checks)
// versus with the trace bus and metrics registry live. TestWriteBenchJSON
// (gated on the BENCH_JSON env var, wired to `make bench`) records the
// numbers in a JSON file so the repo accumulates a perf trajectory.
package repro

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/fleet"
)

// obsBenchRun is the standard workload: a fixed-seed Facebook
// pull-to-update session, exercising UI input, app logic, DNS, TCP, and the
// radio bearer — every instrumented layer.
func obsBenchRun(trace, metrics bool) {
	var opts []fleet.Option
	if trace {
		opts = append(opts, fleet.WithTrace())
	}
	if metrics {
		opts = append(opts, fleet.WithMetrics())
	}
	b := fleet.MustOneUE(benchSeed, nil, fleet.UESpec{}, opts...)
	b.Facebook.Connect()
	b.K.RunUntil(3 * time.Second)
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.Facebook.Screen, log)
	d := controller.NewFacebookDriver(c, false)
	const reps = 3
	var run func(i int)
	run = func(i int) {
		if i >= reps {
			return
		}
		d.PullToUpdate(func(qoe.BehaviorEntry) {
			b.K.After(5*time.Second, func() { run(i + 1) })
		})
	}
	run(0)
	b.K.RunUntil(b.K.Now() + reps*time.Minute)
	b.CloseObs()
}

func BenchmarkTestbedRunNoSink(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obsBenchRun(false, false)
	}
}

func BenchmarkTestbedRunWithSink(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obsBenchRun(true, true)
	}
}

// benchRecord is one measured configuration in BENCH_PR2.json.
type benchRecord struct {
	NsOp     int64 `json:"ns_op"`
	AllocsOp int64 `json:"allocs_op"`
	BytesOp  int64 `json:"bytes_op"`
}

func record(r testing.BenchmarkResult) benchRecord {
	return benchRecord{NsOp: r.NsPerOp(), AllocsOp: r.AllocsPerOp(), BytesOp: r.AllocedBytesPerOp()}
}

func pctOver(base, v int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(v-base) / float64(base)
}

// TestWriteBenchJSON measures the no-sink and with-sink configurations and
// writes the file named by BENCH_JSON (skipped when unset). The no-sink
// configuration is benchmarked twice; the A/A delta is the wall-clock noise
// floor, which bounds the cost of the detached (nil-check-only)
// instrumentation — the <2% overhead budget.
func TestWriteBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("BENCH_JSON not set")
	}
	bench := func(trace, metrics bool) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				obsBenchRun(trace, metrics)
			}
		})
	}
	// Interleaved best-of-N: each round measures all three configurations
	// back to back, so slow machine phases hit them equally; the per-config
	// minimum then discards scheduler and frequency-scaling noise.
	// (Allocation counts are deterministic and need no such care.)
	var noSink, noSinkRepeat, withSink testing.BenchmarkResult
	for i := 0; i < 5; i++ {
		a, b, c := bench(false, false), bench(false, false), bench(true, true)
		if i == 0 || a.NsPerOp() < noSink.NsPerOp() {
			noSink = a
		}
		if i == 0 || b.NsPerOp() < noSinkRepeat.NsPerOp() {
			noSinkRepeat = b
		}
		if i == 0 || c.NsPerOp() < withSink.NsPerOp() {
			withSink = c
		}
	}

	doc := struct {
		Workload          string      `json:"workload"`
		NoSink            benchRecord `json:"no_sink"`
		NoSinkRepeat      benchRecord `json:"no_sink_repeat"`
		WithSink          benchRecord `json:"with_sink"`
		NoSinkNoisePct    float64     `json:"no_sink_aa_noise_pct"`
		WithSinkTimePct   float64     `json:"with_sink_time_overhead_pct"`
		WithSinkAllocsPct float64     `json:"with_sink_allocs_overhead_pct"`
	}{
		Workload:          "facebook pull-to-update x3, LTE, seed 42",
		NoSink:            record(noSink),
		NoSinkRepeat:      record(noSinkRepeat),
		WithSink:          record(withSink),
		NoSinkNoisePct:    pctOver(noSink.NsPerOp(), noSinkRepeat.NsPerOp()),
		WithSinkTimePct:   pctOver(noSink.NsPerOp(), withSink.NsPerOp()),
		WithSinkAllocsPct: pctOver(noSink.AllocsPerOp(), withSink.AllocsPerOp()),
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: no-sink %v ns/op, A/A noise %.2f%%, with-sink overhead %.2f%%",
		out, doc.NoSink.NsOp, doc.NoSinkNoisePct, doc.WithSinkTimePct)
	if noise := doc.NoSinkNoisePct; noise > 2 || noise < -2 {
		t.Logf("warning: A/A noise floor above the 2%% budget on this machine")
	}
}
