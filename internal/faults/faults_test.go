package faults

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

// driveLoss pushes n packets through a chain and records the drop pattern.
func driveLoss(c *Chain, n int) []bool {
	drops := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		c.Enqueue(1400, func() {}, func() { drops[i] = true })
	}
	return drops
}

// TestGEDeterminism: the same seed must yield the exact same drop sequence —
// the property the whole reproducibility story rests on.
func TestGEDeterminism(t *testing.T) {
	const n = 20_000
	p := GEForMeanLoss(0.02, 4)
	a := driveLoss(NewChain(NewGilbertElliott(42, p)), n)
	b := driveLoss(NewChain(NewGilbertElliott(42, p)), n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at packet %d", i)
		}
	}
	c := driveLoss(NewChain(NewGilbertElliott(43, p)), n)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop sequences")
	}
}

// TestGEHighMeanLoss: a mean too high for the requested burst length still
// yields valid probabilities and the requested long-run rate.
func TestGEHighMeanLoss(t *testing.T) {
	const n = 200_000
	for _, mean := range []float64{0.81, 0.9, 0.999} {
		ge := GEForMeanLoss(mean, 4)
		if err := (&Plan{GE: &ge}).Validate(); err != nil {
			t.Fatalf("GEForMeanLoss(%v, 4): %v", mean, err)
		}
		lost := 0
		for _, d := range driveLoss(NewChain(NewGilbertElliott(9, ge)), n) {
			if d {
				lost++
			}
		}
		if rate := float64(lost) / n; rate < mean-0.02 || rate > mean+0.02 {
			t.Errorf("GEForMeanLoss(%v, 4): long-run loss rate %.4f", mean, rate)
		}
	}
}

// TestGEMeanLossAndBurstiness: GEForMeanLoss hits the requested long-run
// rate and arranges the losses in bursts of roughly the requested length.
func TestGEMeanLossAndBurstiness(t *testing.T) {
	const n = 500_000
	drops := driveLoss(NewChain(NewGilbertElliott(7, GEForMeanLoss(0.02, 4))), n)

	lost, bursts, run := 0, 0, 0
	var burstSum int
	for _, d := range drops {
		if d {
			lost++
			run++
		} else if run > 0 {
			bursts++
			burstSum += run
			run = 0
		}
	}
	rate := float64(lost) / n
	if rate < 0.015 || rate > 0.025 {
		t.Fatalf("long-run loss rate %.4f, want ~0.02", rate)
	}
	mean := float64(burstSum) / float64(bursts)
	if mean < 3 || mean > 5 {
		t.Fatalf("mean burst length %.2f, want ~4", mean)
	}
}

func TestIIDLossRate(t *testing.T) {
	const n = 200_000
	drops := driveLoss(NewChain(NewIIDLoss(3, 0.05)), n)
	lost := 0
	for _, d := range drops {
		if d {
			lost++
		}
	}
	if rate := float64(lost) / n; rate < 0.045 || rate > 0.055 {
		t.Fatalf("iid loss rate %.4f, want ~0.05", rate)
	}
}

// TestChainAccounting: every packet either delivers or drops, exactly once,
// and Dropped() agrees with the drop callbacks.
func TestChainAccounting(t *testing.T) {
	c := NewChain(NewGilbertElliott(5, GEForMeanLoss(0.1, 2)), NewIIDLoss(6, 0.1))
	const n = 50_000
	delivered, dropped := 0, 0
	for i := 0; i < n; i++ {
		c.Enqueue(1400, func() { delivered++ }, func() { dropped++ })
	}
	if delivered+dropped != n {
		t.Fatalf("delivered %d + dropped %d != %d", delivered, dropped, n)
	}
	if c.Dropped() != dropped {
		t.Fatalf("Dropped() = %d, drop callbacks = %d", c.Dropped(), dropped)
	}
	if dropped == 0 {
		t.Fatal("no drops at 10%+10% loss")
	}
}

func TestDuplicator(t *testing.T) {
	c := NewChain(NewDuplicator(1, 1.0))
	n := 0
	for i := 0; i < 100; i++ {
		c.Enqueue(100, func() { n++ }, nil)
	}
	if n != 200 {
		t.Fatalf("p=1 duplicator delivered %d copies of 100 packets, want 200", n)
	}
}

// TestJitterPreservesFIFO: jittered packets come out in order, each within
// [0, Max] of its enqueue (plus any FIFO hold-back).
func TestJitterPreservesFIFO(t *testing.T) {
	k := simtime.NewKernel(1)
	c := NewChain(NewJitter(k, 9, 50*time.Millisecond))
	const n = 200
	var out []int
	for i := 0; i < n; i++ {
		i := i
		k.At(simtime.Time(i)*simtime.Time(time.Millisecond), func() {
			c.Enqueue(1400, func() { out = append(out, i) }, nil)
		})
	}
	k.Run()
	if len(out) != n {
		t.Fatalf("delivered %d of %d", len(out), n)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("reordered at position %d: got packet %d", i, v)
		}
	}
}

// TestReordererOvertakes: a held-back packet is overtaken by the next one.
func TestReordererOvertakes(t *testing.T) {
	k := simtime.NewKernel(1)
	r := NewReorderer(k, 2, 0.3, 30*time.Millisecond)
	c := NewChain(r)
	const n = 500
	var out []int
	for i := 0; i < n; i++ {
		i := i
		k.At(simtime.Time(i)*simtime.Time(time.Millisecond), func() {
			c.Enqueue(1400, func() { out = append(out, i) }, nil)
		})
	}
	k.Run()
	if len(out) != n {
		t.Fatalf("delivered %d of %d (reorderer must never drop)", len(out), n)
	}
	inversions := 0
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("no out-of-order deliveries at p=0.3")
	}
	if r.Reordered == 0 {
		t.Fatal("reorder counter never incremented")
	}
}

// TestPlanBuildDirectionsIndependent: UL and DL chains from one seed use
// distinct RNG streams.
func TestPlanBuildDirectionsIndependent(t *testing.T) {
	k := simtime.NewKernel(1)
	p := &Plan{GE: &GEParams{PGoodBad: 0.05, PBadGood: 0.25, LossBad: 1}}
	ul := driveLoss(p.Build(k, Uplink, 99), 10_000)
	dl := driveLoss(p.Build(k, Downlink, 99), 10_000)
	same := true
	for i := range ul {
		if ul[i] != dl[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("uplink and downlink chains share a drop sequence")
	}
}

func TestPlanEmpty(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Fatal("nil plan should be empty")
	}
	if !(&Plan{}).Empty() {
		t.Fatal("zero plan should be empty")
	}
	if (&Plan{LossProb: 0.1}).Empty() {
		t.Fatal("lossy plan reported empty")
	}
	if (&Plan{Outages: []Outage{{Duration: time.Second}}}).Empty() {
		t.Fatal("plan with outage reported empty")
	}
	k := simtime.NewKernel(1)
	c := (&Plan{}).Build(k, Downlink, 1)
	delivered := 0
	c.Enqueue(100, func() { delivered++ }, nil)
	if delivered != 1 || c.Dropped() != 0 {
		t.Fatal("empty chain is not a pass-through")
	}
}
