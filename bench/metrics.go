package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one printed metric and its unit. BENCHMARK.json declares
// the same names and units; bench_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every workload. An
// "op" is the workload's unit of user-visible work: one diagnosed session
// (session-3g), one fleet repetition (storm, storm-remedy), or one emitted
// tick's emit-to-alert latency (pipeline). peak_rss_mb is the median op's
// peak resident set. The op's p95 and the throughput are per-layer metrics:
// on a shared host they do not repeat across runs within any bound the
// benchmark could enforce.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run prints. A metric that does not
// apply to a workload reads 0 there; none of those is a time, so a zero
// never stands in for a measured duration. Layer times are busy shares of
// the measured wall time, which keeps them comparable across workloads.
var perLayer = []metricDef{
	{"bench.op_ms_p95", "ms"},
	{"bench.throughput_per_s", "1/s"},
	{"bench.traced_op_ms", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.generator_late_ticks", "ticks"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cycles_per_op", "count"},
	{"go.gc_cpu_fraction", "ratio"},
	{"simtime.events_per_op", "count"},
	{"simtime.events_per_s", "1/s"},
	{"simtime.epochs_per_op", "count"},
	{"simtime.shard_event_imbalance", "ratio"},
	{"simtime.lockstep_speedup_w2", "ratio"},
	{"simtime.residual_share", "ratio"},
	{"radio.callback_share", "ratio"},
	{"radio.callbacks_per_op", "count"},
	{"netsim.callback_share", "ratio"},
	{"netsim.callbacks_per_op", "count"},
	{"apps.serversim_callback_share", "ratio"},
	{"apps.client_callback_share", "ratio"},
	{"uisim.callback_share", "ratio"},
	{"uisim.parses_per_op", "count"},
	{"uisim.parses_per_action", "ratio"},
	{"collectors.pcap_packets_per_op", "count"},
	{"collectors.qxdm_pdus_per_op", "count"},
	{"collectors.overhead_ratio", "ratio"},
	{"fleet.build_share", "ratio"},
	{"fleet.runto_share", "ratio"},
	{"analyzer.report_share", "ratio"},
	{"analyzer.crosslayer_share", "ratio"},
	{"analyzer.attribute_share", "ratio"},
	{"analyzer.dl_mapped_ratio", "ratio"},
	{"analyzer.ul_mapped_ratio", "ratio"},
	{"analyzer.warnings_per_op", "count"},
	{"remedy.interventions_per_op", "count"},
	{"remedy.interventions_per_ue", "count"},
	{"qoestore.ingest_share", "ratio"},
	{"qoestore.acked", "count"},
	{"qoestore.rejected", "count"},
	{"qoestore.shed", "count"},
	{"qoestore.degraded_transitions", "count"},
	{"qoestore.emitter_delivered_ratio", "ratio"},
	{"qoestore.emitter_retries", "count"},
	{"qoemon.evaluate_share", "ratio"},
	{"qoemon.evaluations", "count"},
	{"qoemon.series", "count"},
	{"qoemon.alerts", "count"},
}

// result is one workload run's outcome. Values holds every metric of the
// run's mode; a traced run fills the per-layer metrics that do not apply to
// its workload with 0.
type result struct {
	Attempted, Failed int
	// Problems lists every failed output check; any entry makes the run
	// incorrect and the process exit non-zero.
	Problems []string
	// Digest is a SHA-256 over the first DigestOps ops' outputs (rendered
	// fleet reports, or the drained /alerts body), so a change that only
	// affects speed can be shown to leave simulated results identical.
	Digest    string
	DigestOps int
	Values    map[string]float64
}

func newResult() *result { return &result{Values: map[string]float64{}} }

// fail records a failed check against one attempted operation.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// fillPerLayer sets every per-layer metric the workload left unset to 0.
func (r *result) fillPerLayer() {
	for _, m := range perLayer {
		if _, ok := r.Values[m.name]; !ok {
			r.Values[m.name] = 0
		}
	}
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS starts a new peak-RSS interval: the kernel resets the
// process's high-water mark to its current resident set. Where that is not
// allowed the mark keeps growing, and opPeakRSSMB reads the running peak.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// opPeakRSSMB reads the peak resident set since the last resetPeakRSS,
// falling back to getrusage's process-lifetime peak.
func opPeakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports ru_maxrss in KiB
}

// rtStats is a snapshot of the Go runtime's cumulative allocation and GC
// counters.
type rtStats struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU              float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRT() rtStats {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	u := func(i int) uint64 {
		if samples[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return samples[i].Value.Uint64()
	}
	f := func(i int) float64 {
		if samples[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return samples[i].Value.Float64()
	}
	return rtStats{allocs: u(0), allocBytes: u(1), gcCycles: u(2), gcCPU: f(3), totalCPU: f(4)}
}

// rtDelta accumulates runtime counter deltas over the measured operations
// only, so set-up and traced work do not pollute the per-op figures.
type rtDelta struct {
	rtStats
	ops int
}

func (d *rtDelta) add(before, after rtStats) {
	d.allocs += after.allocs - before.allocs
	d.allocBytes += after.allocBytes - before.allocBytes
	d.gcCycles += after.gcCycles - before.gcCycles
	d.gcCPU += after.gcCPU - before.gcCPU
	d.totalCPU += after.totalCPU - before.totalCPU
}

// report writes the go.* per-layer metrics, normalised per op.
func (d *rtDelta) report(r *result) {
	n := float64(d.ops)
	r.Values["go.allocs_per_op"] = ratio(float64(d.allocs), n)
	r.Values["go.alloc_mb_per_op"] = ratio(float64(d.allocBytes)/(1<<20), n)
	r.Values["go.gc_cycles_per_op"] = ratio(float64(d.gcCycles), n)
	r.Values["go.gc_cpu_fraction"] = ratio(d.gcCPU, d.totalCPU)
}
