package fleet_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/radio"
)

// shardedBenchRun simulates the PR 8 scaling workload: n UEs homed
// round-robin on 16 cells, one kernel per cell, arrivals staggered 1.5s
// apart within each shard (so every shard sees the same arrival cadence the
// single-cell record used). Returns the virtual horizon simulated.
func shardedBenchRun(n, workers int) time.Duration {
	const cells = 16
	const stagger = 1500 * time.Millisecond
	ues := fleet.SpreadGains(fleet.UniformUEs(n), 0.7, 1.3)
	for i := range ues {
		ues[i].StartAt = time.Duration(i/cells) * stagger
	}
	horizon := 2*time.Minute + time.Duration(n/cells)*stagger
	scen := fleet.Scenario{
		Seed:     42,
		Cell:     fleet.CellSpec{Policy: radio.SchedRoundRobin},
		Topology: &fleet.TopologySpec{Cells: cells},
		UEs:      ues,
		Workload: fleet.BrowseWorkload{Pages: 2, ThinkTime: 6 * time.Second},
	}
	if _, err := fleet.Run(scen, fleet.WithHorizon(horizon), fleet.WithWorkers(workers)); err != nil {
		panic(err)
	}
	return horizon
}

func BenchmarkShardedFleetUE256(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		shardedBenchRun(256, 0)
	}
}

// pr8Size is one measured configuration, normalized per UE and per
// UE-virtual-second (the horizons differ between sizes, so the raw per-UE
// figure alone would conflate simulated time with framework cost).
type pr8Size struct {
	UEs         int     `json:"ues"`
	Cells       int     `json:"cells"`
	Workers     int     `json:"workers"`
	HorizonS    float64 `json:"horizon_s"`
	NsPerOp     int64   `json:"ns_per_op"`
	NsPerUE     float64 `json:"ns_per_ue"`
	NsPerUESec  float64 `json:"ns_per_ue_vsec"`
	AllocsPerUE float64 `json:"allocs_per_ue"`
}

type pr8Doc struct {
	Workload string    `json:"workload"`
	Cores    int       `json:"cores"`
	Sizes    []pr8Size `json:"sizes"`
	// ScaleSharded is per-UE-virtual-second cost of the sharded N=1024 run
	// over the legacy single-cell N=1 run (budget 2x).
	ScaleSharded float64 `json:"per_ue_vsec_ratio_1024_vs_1"`
	// Speedup is workers=cores wall time over workers=1 on the N=1024 run;
	// gated (>= 2x) only when the machine has >= 4 cores.
	Speedup float64 `json:"speedup_parallel_vs_serial"`
}

// measurePR8 runs fn under testing.Benchmark best-of-`rounds` and fills a
// pr8Size from the fastest round.
func measurePR8(rounds int, fn func()) testing.BenchmarkResult {
	var best testing.BenchmarkResult
	for i := 0; i < rounds; i++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				fn()
			}
		})
		if i == 0 || r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// TestWriteBenchPR8JSON measures the sharded multi-cell fleet at N=1024
// against the legacy single-kernel N=1 baseline and writes the file named
// by BENCH_PR8_JSON (skipped when unset; `make bench-fleet` sets it).
// Gates: sharded per-UE-virtual-second cost within 2x of N=1, and — on
// machines with >= 4 cores — parallel shard workers at least 2x faster than
// workers=1.
func TestWriteBenchPR8JSON(t *testing.T) {
	out := os.Getenv("BENCH_PR8_JSON")
	if out == "" {
		t.Skip("BENCH_PR8_JSON not set")
	}
	cores := runtime.NumCPU()
	doc := pr8Doc{
		Workload: "browse 2 pages/UE, rr cells, 16-cell grid, per-shard arrivals staggered 1.5s",
		Cores:    cores,
	}

	// Legacy single-cell, single-kernel baseline.
	legacyHorizon := 2*time.Minute + 1500*time.Millisecond
	r := measurePR8(3, func() { fleetBenchRun(1) })
	doc.Sizes = append(doc.Sizes, pr8Size{
		UEs: 1, Cells: 1, Workers: 1,
		HorizonS:    legacyHorizon.Seconds(),
		NsPerOp:     r.NsPerOp(),
		NsPerUE:     float64(r.NsPerOp()),
		NsPerUESec:  float64(r.NsPerOp()) / legacyHorizon.Seconds(),
		AllocsPerUE: float64(r.AllocsPerOp()),
	})

	// Sharded 1024-UE fleet, serial then parallel workers.
	const bigN = 1024
	var horizon time.Duration
	serial := measurePR8(2, func() { horizon = shardedBenchRun(bigN, 1) })
	add := func(workers int, r testing.BenchmarkResult) {
		doc.Sizes = append(doc.Sizes, pr8Size{
			UEs: bigN, Cells: 16, Workers: workers,
			HorizonS:    horizon.Seconds(),
			NsPerOp:     r.NsPerOp(),
			NsPerUE:     float64(r.NsPerOp()) / bigN,
			NsPerUESec:  float64(r.NsPerOp()) / bigN / horizon.Seconds(),
			AllocsPerUE: float64(r.AllocsPerOp()) / bigN,
		})
	}
	add(1, serial)
	parallel := serial
	if cores > 1 {
		parallel = measurePR8(2, func() { shardedBenchRun(bigN, cores) })
		add(cores, parallel)
	}

	doc.ScaleSharded = doc.Sizes[1].NsPerUESec / doc.Sizes[0].NsPerUESec
	doc.Speedup = float64(serial.NsPerOp()) / float64(parallel.NsPerOp())
	if doc.ScaleSharded > 2 {
		t.Errorf("sharded per-UE cost at N=1024 is %.2fx the single-UE cost (budget: 2x)", doc.ScaleSharded)
	}
	if cores >= 4 && doc.Speedup < 2 {
		t.Errorf("parallel shard speedup %.2fx on %d cores (floor: 2x)", doc.Speedup, cores)
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: sharded scale %.2fx, speedup %.2fx on %d cores", out, doc.ScaleSharded, doc.Speedup, cores)
}
