package netsim

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

// TestPolicerZeroRate: at rate 0 the initial burst passes and everything
// after it drops — no division-by-zero, no hang.
func TestPolicerZeroRate(t *testing.T) {
	k := simtime.NewKernel(1)
	p := NewPolicer(k, 0, 0) // burst floored to bucketMinBytes
	passed, dropped := 0, 0
	for i := 0; i < 10; i++ {
		p.Enqueue(1400, func(any) { passed++ }, nil, func() { dropped++ })
	}
	if passed != 1 || dropped != 9 {
		t.Fatalf("zero-rate policer: passed=%d dropped=%d, want 1/9", passed, dropped)
	}
	if p.Drops != 9 {
		t.Fatalf("Drops = %d, want 9", p.Drops)
	}
}

// TestShaperZeroRate: at rate 0 the shaper queues up to its byte limit and
// tail-drops the rest; the drain event must not panic or spin.
func TestShaperZeroRate(t *testing.T) {
	k := simtime.NewKernel(1)
	s := NewShaper(k, 0, 0, 3000)
	passed, dropped := 0, 0
	for i := 0; i < 10; i++ {
		s.Enqueue(1400, func(any) { passed++ }, nil, func() { dropped++ })
	}
	k.RunUntil(simtime.Time(time.Hour))
	if passed != 1 {
		t.Fatalf("zero-rate shaper passed %d packets, want only the initial burst", passed)
	}
	if s.QueuedBytes() != 2800 {
		t.Fatalf("queued %d bytes, want 2800 (two packets under the 3000 limit)", s.QueuedBytes())
	}
	if dropped != 7 || s.Drops != 7 {
		t.Fatalf("dropped=%d Drops=%d, want 7/7", dropped, s.Drops)
	}
}

// TestBurstBelowPacketSize: a burst allowance smaller than one MTU is
// floored to bucketMinBytes so full-size packets can still ever pass.
func TestBurstBelowPacketSize(t *testing.T) {
	k := simtime.NewKernel(1)
	p := NewPolicer(k, 1e6, 100)
	passed := false
	p.Enqueue(1500, func(any) { passed = true }, nil, nil)
	if !passed {
		t.Fatal("full-size packet refused by a floored burst bucket")
	}
}

// TestShaperRefillAfterLongIdle: tokens cap at the burst size during idle —
// a long quiet period must not bank unbounded credit.
func TestShaperRefillAfterLongIdle(t *testing.T) {
	k := simtime.NewKernel(1)
	const rate = 8000.0 // 1000 bytes/s
	s := NewShaper(k, rate, 0, 64*1024)

	// Exhaust the initial burst (bucketMinBytes = 1600).
	got := 0
	s.Enqueue(1600, func(any) { got++ }, nil, nil)
	if got != 1 {
		t.Fatal("initial burst refused")
	}

	// Idle for an hour: only burstBytes of credit may accumulate.
	k.RunUntil(simtime.Time(time.Hour))
	var deliveredAt []simtime.Time
	for i := 0; i < 3; i++ {
		s.Enqueue(1000, func(any) { deliveredAt = append(deliveredAt, k.Now()) }, nil, nil)
	}
	k.Run()
	if len(deliveredAt) != 3 {
		t.Fatalf("delivered %d of 3 packets", len(deliveredAt))
	}
	// Packet 1 spends the banked 1600 tokens; packet 2 needs 400 more
	// tokens (~0.4s); packet 3 a further full second.
	if deliveredAt[0] != simtime.Time(time.Hour) {
		t.Fatalf("first packet delayed to %v despite banked burst", deliveredAt[0])
	}
	w2 := time.Duration(deliveredAt[1] - deliveredAt[0])
	if w2 < 300*time.Millisecond || w2 > 500*time.Millisecond {
		t.Fatalf("second packet waited %v, want ~400ms (idle must not bank extra credit)", w2)
	}
	w3 := time.Duration(deliveredAt[2] - deliveredAt[1])
	if w3 < 900*time.Millisecond || w3 > 1100*time.Millisecond {
		t.Fatalf("third packet waited %v, want ~1s", w3)
	}
}
