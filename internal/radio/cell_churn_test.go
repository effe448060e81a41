package radio

import (
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
)

// churnRun drives three PF bearers on cell 0 while bearer 1 hands over to
// cell 1 at 2s and back at 4s (100ms interruption each way). Traffic is one
// payload per bearer per period until 9s; the kernel then drains to 12s.
// Returns per-bearer PDU digests, sent and delivered SDU counts.
func churnRun(t *testing.T, payload, periodMs int) (digests []string, sent, delivered [3]int, mons [3]*recordingMonitor) {
	t.Helper()
	k := simtime.NewKernel(7)
	cell0 := NewCell(k, SchedPropFair, 0)
	cell1 := NewCell(k, SchedPropFair, 1)

	var bearers [3]*Bearer
	for i := range bearers {
		b := NewBearer(cell0, ProfileLTE(), 1)
		mons[i] = &recordingMonitor{}
		b.Attach(mons[i])
		bearers[i] = b
	}

	pkt := make([]byte, payload)
	var stops [3]func()
	for i := range bearers {
		i := i
		b := bearers[i]
		stops[i] = k.Ticker(time.Duration(periodMs)*time.Millisecond, func() {
			sent[i]++
			b.SendDownlink(pkt, func(any) { delivered[i]++ }, nil)
		})
	}

	const hoStall = 100 * time.Millisecond
	k.At(simtime.Time(2*time.Second), func() { bearers[1].BeginHandover() })
	k.At(simtime.Time(2*time.Second+simtime.Time(hoStall)), func() {
		bearers[1].CompleteHandover(cell1, 0.9)
	})
	k.At(simtime.Time(4*time.Second), func() { bearers[1].BeginHandover() })
	k.At(simtime.Time(4*time.Second+simtime.Time(hoStall)), func() {
		bearers[1].CompleteHandover(cell0, 1)
	})
	k.At(simtime.Time(9*time.Second), func() {
		for _, stop := range stops {
			stop()
		}
	})
	k.RunUntil(simtime.Time(12 * time.Second))

	for i := range mons {
		var b strings.Builder
		for _, p := range mons[i].pdus {
			b.WriteString(pduLogKey(p))
			b.WriteByte('\n')
		}
		digests = append(digests, b.String())
	}
	return digests, sent, delivered, mons
}

// TestPFChurnLosslessAndStall pins the handover data-plane contract: detach
// mid-run loses no SDUs (X2 forwarding), and the interruption window really
// silences the bearer.
func TestPFChurnLosslessAndStall(t *testing.T) {
	// Light load: everything queued must drain by the 12s horizon.
	_, sent, delivered, mons := churnRun(t, 1200, 50)
	for i := range sent {
		if sent[i] == 0 || delivered[i] != sent[i] {
			t.Fatalf("bearer %d: sent %d delivered %d (handover lost SDUs)", i, sent[i], delivered[i])
		}
	}
	// No bearer-1 PDU finishes inside either interruption window. A PDU
	// already on the air at BeginHandover may complete a few ms in; after
	// that the channel must be silent until CompleteHandover.
	windows := [][2]simtime.Time{
		{simtime.Time(2*time.Second + 20*time.Millisecond), simtime.Time(2*time.Second + 100*time.Millisecond)},
		{simtime.Time(4*time.Second + 20*time.Millisecond), simtime.Time(4*time.Second + 100*time.Millisecond)},
	}
	for _, p := range mons[1].pdus {
		for _, w := range windows {
			if p.SentAt >= w[0] && p.SentAt < w[1] {
				t.Fatalf("bearer 1 PDU seq %d sent at %v inside interruption window [%v, %v)",
					p.Seq, p.SentAt, w[0], w[1])
			}
		}
	}
	// The moved bearer kept transmitting on the target cell between the two
	// handovers.
	between := 0
	for _, p := range mons[1].pdus {
		if p.SentAt > simtime.Time(2200*time.Millisecond) && p.SentAt < simtime.Time(4*time.Second) {
			between++
		}
	}
	if between == 0 {
		t.Fatal("bearer 1 never transmitted on the target cell between handovers")
	}
}

// TestPFChurnDeterministic reruns the churn scenario and requires identical
// PDU logs — attach/detach mid-run must not perturb the deterministic
// scheduling contract.
func TestPFChurnDeterministic(t *testing.T) {
	d1, s1, del1, _ := churnRun(t, 1200, 50)
	d2, s2, del2, _ := churnRun(t, 1200, 50)
	if s1 != s2 || del1 != del2 {
		t.Fatalf("reruns diverged: sent %v/%v delivered %v/%v", s1, s2, del1, del2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("bearer %d PDU log differs between reruns", i)
		}
	}
}

// TestPFChurnFairness saturates the downlink and checks that the two bearers
// that never moved keep near-equal proportional-fair shares through bearer
// 1's departure and return, and that the returning bearer is served promptly
// (its EWMA restarts as a newcomer rather than carrying stale credit).
func TestPFChurnFairness(t *testing.T) {
	_, _, delivered, mons := churnRun(t, 16*1024, 5)
	if delivered[0] == 0 || delivered[2] == 0 {
		t.Fatalf("stationary bearers starved: %v", delivered)
	}
	ratio := float64(delivered[0]) / float64(delivered[2])
	if ratio < 0.85 || ratio > 1.18 {
		t.Fatalf("equal-gain PF shares diverged across churn: %d vs %d (ratio %.3f)",
			delivered[0], delivered[2], ratio)
	}
	// Returning bearer gets a grant soon after re-attach even under
	// saturation.
	reattach := simtime.Time(4*time.Second + 100*time.Millisecond)
	served := false
	for _, p := range mons[1].pdus {
		if p.SentAt >= reattach && p.SentAt < reattach+simtime.Time(200*time.Millisecond) {
			served = true
			break
		}
	}
	if !served {
		t.Fatal("re-attached bearer not served within 200ms under saturation")
	}
}
