package radio

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

// Edge-case coverage for the bearer and RLC entity beyond the main suite.

func TestEmptyPacketDeliversNothing(t *testing.T) {
	k := simtime.NewKernel(1)
	b := NewBearer(k, ProfileWiFi())
	mon := &recordingMonitor{}
	b.Attach(mon)
	delivered := false
	b.SendUplink(nil, func(any) { delivered = true }, nil)
	k.Run()
	// Zero-byte SDUs occupy no stream bytes; their delivery callback still
	// fires once the stream reaches their (zero-length) end offset.
	if !delivered {
		t.Fatal("zero-byte SDU never delivered")
	}
	for _, p := range mon.pdus {
		if p.Size == 0 {
			t.Fatal("zero-size PDU emitted")
		}
	}
}

func TestInterleavedDirectionsIndependent(t *testing.T) {
	k := simtime.NewKernel(2)
	b := NewBearer(k, Profile3G())
	mon := &recordingMonitor{}
	b.Attach(mon)
	var ulAt, dlAt simtime.Time
	b.SendUplink(make([]byte, 8000), func(any) { ulAt = k.Now() }, nil)
	b.SendDownlink(make([]byte, 8000), func(any) { dlAt = k.Now() }, nil)
	k.Run()
	if ulAt == 0 || dlAt == 0 {
		t.Fatal("one direction starved")
	}
	// Sequence spaces are per direction, both starting at 0.
	seen := map[Direction]bool{}
	for _, p := range mon.pdus {
		if p.Seq == 0 {
			seen[p.Dir] = true
		}
	}
	if !seen[Uplink] || !seen[Downlink] {
		t.Fatal("per-direction sequence spaces not independent")
	}
}

func TestQueuedBytesAccounting(t *testing.T) {
	k := simtime.NewKernel(3)
	b := NewBearer(k, Profile3G())
	b.SendUplink(make([]byte, 4000), nil, nil)
	if q := b.QueuedUplink(); q != 4000 {
		t.Fatalf("queued uplink = %d immediately after send", q)
	}
	k.Run()
	if q := b.QueuedUplink(); q != 0 {
		t.Fatalf("queued uplink = %d after drain", q)
	}
	if q := b.QueuedDownlink(); q != 0 {
		t.Fatalf("queued downlink = %d with no DL traffic", q)
	}
}

func TestBurstAfterIdleRepaysPromotion(t *testing.T) {
	k := simtime.NewKernel(4)
	b := NewBearer(k, Profile3G())
	var first, second simtime.Time
	b.SendUplink(make([]byte, 400), func(any) { first = k.Now() }, nil)
	k.Run()
	// Idle long enough to demote DCH -> FACH -> PCH (5s + 12s).
	k.RunUntil(k.Now() + 30*time.Second)
	start := k.Now()
	b.SendUplink(make([]byte, 400), func(any) { second = k.Now() }, nil)
	k.Run()
	if second-start < 2*time.Second {
		t.Fatalf("second transfer after idle took %v, should repay the 2s PCH promotion",
			second-start)
	}
	if first < 2*time.Second {
		t.Fatalf("first transfer at %v, before initial promotion", first)
	}
}

func TestMultipleMonitorsAllNotified(t *testing.T) {
	k := simtime.NewKernel(5)
	b := NewBearer(k, ProfileWiFi())
	m1, m2 := &recordingMonitor{}, &recordingMonitor{}
	b.Attach(m1)
	b.Attach(m2)
	b.SendUplink(make([]byte, 3000), nil, nil)
	k.Run()
	if len(m1.pdus) == 0 || len(m1.pdus) != len(m2.pdus) {
		t.Fatalf("monitors diverge: %d vs %d", len(m1.pdus), len(m2.pdus))
	}
}

func TestHighLossEventuallyDelivers(t *testing.T) {
	k := simtime.NewKernel(6)
	p := Profile3G()
	p.PDULossProb = 0.3 // brutal air interface
	b := NewBearer(k, p)
	done := 0
	for i := 0; i < 5; i++ {
		b.SendUplink(make([]byte, 2000), func(any) { done++ }, nil)
	}
	k.Run()
	if done != 5 {
		t.Fatalf("delivered %d of 5 under 30%% PDU loss", done)
	}
}
