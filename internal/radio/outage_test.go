package radio

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

// TestOutageRecoversDelivery: packets sent across a bearer outage are still
// delivered once coverage returns — the RLC AM entities NACK the PDUs lost
// in the gap and retransmit, never deadlocking.
func TestOutageRecoversDelivery(t *testing.T) {
	for _, mk := range []func() *Profile{Profile3G, ProfileLTE} {
		prof := mk()
		k := simtime.NewKernel(1)
		b := NewBearer(NewCell(k, SchedRoundRobin, 0), prof, 1)
		mon := &recordingMonitor{}
		b.Attach(mon)
		b.ScheduleOutage(simtime.Time(2500*time.Millisecond), 2*time.Second)

		// A stream of uplink packets spanning the outage window.
		const n = 20
		delivered := 0
		for i := 0; i < n; i++ {
			at := simtime.Time(i) * simtime.Time(300*time.Millisecond)
			k.At(at, func() {
				b.SendUplink(make([]byte, 1400), func(any) { delivered++ }, nil)
			})
		}
		k.Run()

		if delivered != n {
			t.Fatalf("%s: delivered %d of %d packets across the outage", prof.Name, delivered, n)
		}
		if b.OutageCount() != 1 {
			t.Fatalf("%s: outage count = %d, want 1", prof.Name, b.OutageCount())
		}
		retx := 0
		for _, p := range mon.pdus {
			if p.Retx {
				retx++
			}
		}
		if retx == 0 {
			t.Fatalf("%s: no RLC retransmissions after a 2s outage", prof.Name)
		}
	}
}

// TestOutageDropsRRCToBase: losing the bearer resets the RRC machine to its
// base state, and the next transfer pays a fresh promotion.
func TestOutageDropsRRCToBase(t *testing.T) {
	prof := Profile3G()
	k := simtime.NewKernel(1)
	b := NewBearer(NewCell(k, SchedRoundRobin, 0), prof, 1)

	// Promote via traffic, then hit an outage while still high-power.
	b.SendUplink(make([]byte, 100), nil, nil)
	b.ScheduleOutage(simtime.Time(3*time.Second), 500*time.Millisecond)
	k.RunUntil(simtime.Time(3100 * time.Millisecond))
	if got := b.RRC().State(); got != prof.Base {
		t.Fatalf("state during outage = %v, want base %v", got, prof.Base)
	}
	if !b.InOutage() {
		t.Fatal("InOutage() false inside the scheduled window")
	}
	k.RunUntil(simtime.Time(4 * time.Second))
	if b.InOutage() {
		t.Fatal("InOutage() true after the window ended")
	}
}

// TestOutageDeterminism: two runs of the same impaired schedule produce the
// same PDU log.
func TestOutageDeterminism(t *testing.T) {
	run := func() []simtime.Time {
		k := simtime.NewKernel(9)
		b := NewBearer(NewCell(k, SchedRoundRobin, 0), ProfileLTE(), 1)
		mon := &recordingMonitor{}
		b.Attach(mon)
		b.ScheduleOutage(simtime.Time(time.Second), time.Second)
		for i := 0; i < 10; i++ {
			at := simtime.Time(i) * simtime.Time(250*time.Millisecond)
			k.At(at, func() { b.SendDownlink(make([]byte, 1400), nil, nil) })
		}
		k.Run()
		out := make([]simtime.Time, len(mon.pdus))
		for i, p := range mon.pdus {
			out[i] = p.SentAt
		}
		return out
	}
	a, c := run(), run()
	if len(a) != len(c) {
		t.Fatalf("PDU counts differ: %d vs %d", len(a), len(c))
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("PDU %d timestamp differs: %v vs %v", i, a[i], c[i])
		}
	}
}
