package power

import (
	"math"
	"testing"
	"time"

	"repro/internal/qxdm"
	"repro/internal/radio"
	"repro/internal/simtime"
)

func sec(s float64) simtime.Time { return simtime.Time(s * float64(time.Second)) }

func TestIdleBaselineEnergy(t *testing.T) {
	prof := radio.Profile3G()
	log := &qxdm.Log{}
	// 100 s entirely in PCH at 20 mW = 2 J.
	r := Analyze(prof, log, 0, sec(100))
	if math.Abs(r.TotalJ-2.0) > 1e-9 {
		t.Fatalf("TotalJ = %v, want 2.0", r.TotalJ)
	}
	if r.TailJ != 0 {
		t.Fatalf("TailJ = %v, want 0 with no transitions", r.TailJ)
	}
	if math.Abs(r.BaseJ-2.0) > 1e-9 {
		t.Fatalf("BaseJ = %v, want the whole idle window", r.BaseJ)
	}
	if r.ActiveJ() != 0 {
		t.Fatalf("ActiveJ = %v, want 0 when idle", r.ActiveJ())
	}
}

func TestHighPowerPeriodWithTail(t *testing.T) {
	prof := radio.Profile3G()
	log := &qxdm.Log{
		Transitions: []qxdm.TransitionRecord{
			{At: sec(10), From: radio.StatePCH, To: radio.StateDCH, Promotion: true},
			{At: sec(20), From: radio.StateDCH, To: radio.StateFACH},
			{At: sec(32), From: radio.StateFACH, To: radio.StatePCH},
		},
		PDUs: []qxdm.PDURecord{
			{At: sec(12), Dir: radio.Uplink, Seq: 0, Size: 40},
			{At: sec(15), Dir: radio.Uplink, Seq: 1, Size: 40},
		},
	}
	r := Analyze(prof, log, 0, sec(40))
	// Residency: PCH 0-10 and 32-40 (18 s), DCH 10-20 (10 s), FACH 20-32 (12 s).
	wantTotal := 18*0.020 + 10*0.800 + 12*0.460
	if math.Abs(r.TotalJ-wantTotal) > 1e-9 {
		t.Fatalf("TotalJ = %v, want %v", r.TotalJ, wantTotal)
	}
	// Tail: after the last PDU at 15 s -> DCH 15-20 (5 s) + FACH 20-32 (12 s).
	wantTail := 5*0.800 + 12*0.460
	if math.Abs(r.TailJ-wantTail) > 1e-9 {
		t.Fatalf("TailJ = %v, want %v", r.TailJ, wantTail)
	}
	if math.Abs(r.TailJ+r.NonTailJ+r.BaseJ-r.TotalJ) > 1e-9 {
		t.Fatal("tail + non-tail + base != total")
	}
	if got := r.PerStateTime[radio.StateDCH]; got != 10*time.Second {
		t.Fatalf("DCH residency = %v, want 10s", got)
	}
}

func TestPromotionWithoutDataIsAllTail(t *testing.T) {
	prof := radio.ProfileLTE()
	log := &qxdm.Log{
		Transitions: []qxdm.TransitionRecord{
			{At: sec(5), From: radio.StateLTEIdle, To: radio.StateLTECRX, Promotion: true},
			{At: sec(6), From: radio.StateLTECRX, To: radio.StateLTEShortDRX},
			{At: sec(7), From: radio.StateLTEShortDRX, To: radio.StateLTELongDRX},
			{At: sec(16.6), From: radio.StateLTELongDRX, To: radio.StateLTEIdle},
		},
	}
	r := Analyze(prof, log, 0, sec(20))
	wantTail := 1*1.210 + 1*0.700 + 9.6*0.600
	if math.Abs(r.TailJ-wantTail) > 1e-6 {
		t.Fatalf("TailJ = %v, want %v", r.TailJ, wantTail)
	}
}

func TestWindowClipping(t *testing.T) {
	prof := radio.Profile3G()
	log := &qxdm.Log{
		Transitions: []qxdm.TransitionRecord{
			{At: sec(1), From: radio.StatePCH, To: radio.StateDCH, Promotion: true},
		},
		PDUs: []qxdm.PDURecord{{At: sec(2)}},
	}
	// Window starts after the transition: the whole window is DCH.
	r := Analyze(prof, log, sec(5), sec(10))
	want := 5 * 0.800
	if math.Abs(r.TotalJ-want) > 1e-9 {
		t.Fatalf("TotalJ = %v, want %v", r.TotalJ, want)
	}
}

func TestEmptyWindow(t *testing.T) {
	r := Analyze(radio.Profile3G(), &qxdm.Log{}, sec(10), sec(10))
	if r.TotalJ != 0 {
		t.Fatalf("TotalJ = %v for empty window", r.TotalJ)
	}
}

func TestEndToEndEnergyFromSimulatedTraffic(t *testing.T) {
	prof := radio.ProfileLTE()
	k := simtime.NewKernel(5)
	b := radio.NewBearer(radio.NewCell(k, radio.SchedRoundRobin, 0), prof, 1)
	m := qxdm.Attach(b)
	b.SendUplink(make([]byte, 20000), nil, nil)
	k.RunUntil(60 * time.Second)
	r := Analyze(prof, m.Log(), 0, k.Now())
	if r.TotalJ <= 0 {
		t.Fatal("no energy computed")
	}
	// The transfer takes well under a second; the ~11.6s tail dominates.
	if r.TailJ <= r.NonTailJ {
		t.Fatalf("tail (%v J) should dominate a single short transfer (non-tail %v J)", r.TailJ, r.NonTailJ)
	}
	// Sanity: 60 s window, total bounded by 60 s at full CRX power.
	if r.TotalJ > 60*1.210 {
		t.Fatalf("TotalJ = %v exceeds physical bound", r.TotalJ)
	}
	// More traffic => more energy.
	k2 := simtime.NewKernel(5)
	b2 := radio.NewBearer(radio.NewCell(k2, radio.SchedRoundRobin, 0), prof, 1)
	m2 := qxdm.Attach(b2)
	for i := 0; i < 10; i++ {
		off := simtime.Time(i) * 5 * time.Second
		k2.At(off, func() { b2.SendUplink(make([]byte, 20000), nil, nil) })
	}
	k2.RunUntil(60 * time.Second)
	r2 := Analyze(prof, m2.Log(), 0, k2.Now())
	if r2.TotalJ <= r.TotalJ {
		t.Fatalf("10 transfers (%v J) not more energy than 1 (%v J)", r2.TotalJ, r.TotalJ)
	}
}
