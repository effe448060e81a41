package radio

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simtime"
)

// pduLogKey compacts one PDU observation into a comparable string.
func pduLogKey(p *PDU) string {
	return fmt.Sprintf("%d/%s/%d/%v/%v/%d", p.Seq, p.Dir, p.Size, p.Retx, p.Poll, p.SentAt)
}

// driveBearer pushes count payloads down the bearer's downlink and uplink
// and runs the kernel dry, returning the observed PDU log and delivery
// count.
func driveBearer(k *simtime.Kernel, b *Bearer, count, size int) ([]string, int) {
	rec := &recordingMonitor{}
	b.Attach(rec)
	delivered := 0
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < count; i++ {
		b.SendDownlink(payload, func(any) { delivered++ }, nil)
		b.SendUplink(payload[:size/4], func(any) { delivered++ }, nil)
	}
	k.Run()
	var keys []string
	for _, p := range rec.pdus {
		keys = append(keys, pduLogKey(p))
	}
	return keys, delivered
}

// TestSingleBearerCellMatchesStandalone is the core cell-scheduler
// compatibility property: a cell with one attached bearer must produce an
// event-for-event identical PDU schedule to a standalone bearer at the same
// seed — the guarantee the 1-UE fleet golden test builds on.
func TestSingleBearerCellMatchesStandalone(t *testing.T) {
	for _, policy := range []SchedPolicy{SchedRoundRobin, SchedPropFair} {
		run := func(withCell bool) ([]string, int) {
			k := simtime.NewKernel(7)
			b := NewBearer(k, ProfileLTE())
			if withCell {
				NewCell(k, policy).Attach(b, 1)
			}
			return driveBearer(k, b, 40, 1400)
		}
		alone, dAlone := run(false)
		celled, dCell := run(true)
		if dAlone != dCell {
			t.Fatalf("policy %v: deliveries %d (standalone) != %d (cell)", policy, dAlone, dCell)
		}
		if len(alone) != len(celled) {
			t.Fatalf("policy %v: PDU count %d != %d", policy, len(alone), len(celled))
		}
		for i := range alone {
			if alone[i] != celled[i] {
				t.Fatalf("policy %v: PDU %d differs:\nstandalone: %s\ncell:       %s",
					policy, i, alone[i], celled[i])
			}
		}
	}
}

// TestCellSerializesContention checks that two bearers on one cell share the
// air interface: the same transfer that takes T alone takes roughly 2T when
// a second bearer pushes the same load, and both finish.
func TestCellSerializesContention(t *testing.T) {
	finishAt := func(n int) simtime.Time {
		k := simtime.NewKernel(3)
		cell := NewCell(k, SchedRoundRobin)
		var done int
		var last simtime.Time
		payload := make([]byte, 1400)
		for i := 0; i < n; i++ {
			b := NewBearer(k, ProfileLTE())
			cell.Attach(b, 1)
			for j := 0; j < 200; j++ {
				b.SendDownlink(payload, func(any) {
					done++
					if k.Now() > last {
						last = k.Now()
					}
				}, nil)
			}
		}
		k.Run()
		if done != n*200 {
			t.Fatalf("delivered %d of %d SDUs", done, n*200)
		}
		return last
	}
	t1 := finishAt(1)
	t2 := finishAt(2)
	// Airtime doubles but fixed costs (RRC promotion, ARQ round trips)
	// overlap across the two UEs, so the stretch lands between 1.2x and 3x.
	if t2 < t1*6/5 {
		t.Fatalf("2-UE completion %v not meaningfully later than 1-UE %v", t2, t1)
	}
	if t2 > t1*3 {
		t.Fatalf("2-UE completion %v more than 3x the 1-UE %v", t2, t1)
	}
}

// TestCellRoundRobinFairness: two equal-gain bearers with equal backlogs
// should see interleaved service and near-equal completion.
func TestCellRoundRobinFairness(t *testing.T) {
	k := simtime.NewKernel(11)
	cell := NewCell(k, SchedRoundRobin)
	recs := [2]*recordingMonitor{{}, {}}
	var finish [2]simtime.Time
	payload := make([]byte, 1400)
	for i := 0; i < 2; i++ {
		b := NewBearer(k, ProfileLTE())
		cell.Attach(b, 1)
		b.Attach(recs[i])
		idx := i
		for j := 0; j < 100; j++ {
			b.SendDownlink(payload, func(any) {
				if k.Now() > finish[idx] {
					finish[idx] = k.Now()
				}
			}, nil)
		}
	}
	k.Run()
	if finish[0] == 0 || finish[1] == 0 {
		t.Fatal("a bearer never completed")
	}
	lo, hi := finish[0], finish[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi-lo) > 0.25*float64(hi) {
		t.Fatalf("round-robin completion skew too large: %v vs %v", finish[0], finish[1])
	}
}

// TestCellPropFairFavorsGoodChannel: under proportional fair, a high-gain
// bearer must finish the same backlog sooner than a low-gain one, and the
// cell must still serve the low-gain bearer to completion.
func TestCellPropFairFavorsGoodChannel(t *testing.T) {
	k := simtime.NewKernel(13)
	cell := NewCell(k, SchedPropFair)
	var finish [2]simtime.Time
	payload := make([]byte, 1400)
	gains := []float64{2.0, 0.5}
	for i := 0; i < 2; i++ {
		b := NewBearer(k, ProfileLTE())
		cell.Attach(b, gains[i])
		idx := i
		for j := 0; j < 100; j++ {
			b.SendDownlink(payload, func(any) {
				if k.Now() > finish[idx] {
					finish[idx] = k.Now()
				}
			}, nil)
		}
	}
	k.Run()
	if finish[0] == 0 || finish[1] == 0 {
		t.Fatal("a bearer never completed")
	}
	if finish[0] >= finish[1] {
		t.Fatalf("high-gain bearer finished at %v, not before low-gain at %v", finish[0], finish[1])
	}
}

// TestCellDeterminism: a contended multi-bearer cell run is bit-identical
// across reruns at the same seed.
func TestCellDeterminism(t *testing.T) {
	run := func() []string {
		k := simtime.NewKernel(17)
		cell := NewCell(k, SchedPropFair)
		var keys []string
		payload := make([]byte, 1000)
		for i := 0; i < 4; i++ {
			b := NewBearer(k, Profile3G())
			cell.Attach(b, 0.5+0.5*float64(i))
			rec := &recordingMonitor{}
			b.Attach(rec)
			for j := 0; j < 50; j++ {
				b.SendDownlink(payload, nil, nil)
			}
			defer func() {
				for _, p := range rec.pdus {
					keys = append(keys, pduLogKey(p))
				}
			}()
		}
		k.Run()
		return keys
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("PDU counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at PDU %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestCellOutageReleasesChannel: a bearer that goes into outage while queued
// must not wedge the channel for its cell mates.
func TestCellOutageReleasesChannel(t *testing.T) {
	k := simtime.NewKernel(19)
	cell := NewCell(k, SchedRoundRobin)
	bOut := NewBearer(k, ProfileLTE())
	bOK := NewBearer(k, ProfileLTE())
	cell.Attach(bOut, 1)
	cell.Attach(bOK, 1)
	bOut.ScheduleOutage(50*time.Millisecond, 2*time.Second)
	payload := make([]byte, 1400)
	outDone, okDone := 0, 0
	for j := 0; j < 50; j++ {
		bOut.SendDownlink(payload, func(any) { outDone++ }, nil)
		bOK.SendDownlink(payload, func(any) { okDone++ }, nil)
	}
	k.Run()
	if okDone != 50 {
		t.Fatalf("healthy bearer delivered %d of 50 during peer outage", okDone)
	}
	if outDone != 50 {
		t.Fatalf("outaged bearer delivered %d of 50 after recovery", outDone)
	}
}

// TestAttachTwicePanics: double cell attachment is a wiring bug.
func TestAttachTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("second Attach did not panic")
		}
	}()
	k := simtime.NewKernel(1)
	b := NewBearer(k, ProfileLTE())
	NewCell(k, SchedRoundRobin).Attach(b, 1)
	NewCell(k, SchedRoundRobin).Attach(b, 1)
}
