package fleet_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/radio"
)

// stormAllocsPerUE runs the benchmark's storm shape — LTE cells under
// round-robin scheduling, BrowseWorkload{Pages: 2, ThinkTime: 6s},
// collectors off, one UE per cell arriving every 1.5 s, and a horizon that
// leaves every UE two minutes — with n UEs on 16 cells. It returns the heap
// allocations of Drive and RunTo per UE.
func stormAllocsPerUE(t *testing.T, n int) float64 {
	t.Helper()
	const cells = 16
	const stagger = 1500 * time.Millisecond
	ues := fleet.UniformUEs(n)
	for i := range ues {
		ues[i].StartAt = time.Duration(i/cells) * stagger
		ues[i].DisablePcap, ues[i].DisableQxDM = true, true
	}
	horizon := 2*time.Minute + time.Duration(n/cells)*stagger
	f, err := fleet.Build(fleet.Scenario{
		Seed:     1,
		Cell:     fleet.CellSpec{Profile: radio.ProfileLTE(), Policy: radio.SchedRoundRobin},
		Topology: &fleet.TopologySpec{Cells: cells},
		UEs:      ues,
		Workload: fleet.BrowseWorkload{Pages: 2, ThinkTime: 6 * time.Second},
	}, fleet.WithHorizon(horizon), fleet.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f.Drive()
	f.RunTo(horizon)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// stormAllocsPerUECeiling is the allocation budget per storm UE: the count
// with every per-packet and per-PDU hop bound once (about 2.6k), plus 10%.
// When each hop allocated its own closure and RLC its own SDU, a UE cost
// about 8.4k.
const stormAllocsPerUECeiling = 2850

// TestStormAllocsPerUEFlat checks that a storm UE allocates the same at 64
// and 128 UEs — per-UE cost must not grow with the fleet — and, outside
// -race builds, stays under the per-UE budget.
func TestStormAllocsPerUEFlat(t *testing.T) {
	small := stormAllocsPerUE(t, 64)
	large := stormAllocsPerUE(t, 128)
	t.Logf("allocations per UE: %.0f at 64 UEs, %.0f at 128 UEs", small, large)
	if d := math.Abs(large-small) / small; d > 0.05 {
		t.Errorf("allocations per UE differ by %.1f%% between 64 and 128 UEs (want within 5%%)", 100*d)
	}
	if raceEnabled {
		return
	}
	for _, v := range []float64{small, large} {
		if v > stormAllocsPerUECeiling {
			t.Errorf("%.0f allocations per UE, over the budget of %d", v, stormAllocsPerUECeiling)
		}
	}
}
