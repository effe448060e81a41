package radio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simtime"
)

// recordingMonitor captures everything for assertions.
type recordingMonitor struct {
	transitions []Transition
	pdus        []*PDU
	statuses    []StatusPDU
}

func (r *recordingMonitor) RRCTransition(t Transition) { r.transitions = append(r.transitions, t) }
func (r *recordingMonitor) DataPDU(p *PDU)             { r.pdus = append(r.pdus, p) }
func (r *recordingMonitor) StatusPDU(s StatusPDU)      { r.statuses = append(r.statuses, s) }

func TestProfilesValidate(t *testing.T) {
	for _, p := range []*Profile{Profile3G(), ProfileLTE(), ProfileSimplified3G(), ProfileWiFi()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestProfileCloneIsDeep(t *testing.T) {
	p := Profile3G()
	q := p.Clone()
	q.States[StateDCH] = StateParams{PowerMW: 1}
	q.PromotionDelay[StatePCH] = time.Hour
	q.Demotions[0].Timer = time.Hour
	if p.States[StateDCH].PowerMW == 1 || p.PromotionDelay[StatePCH] == time.Hour || p.Demotions[0].Timer == time.Hour {
		t.Fatal("Clone aliases the original")
	}
}

func TestInvalidProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMachine accepted an invalid profile")
		}
	}()
	p := Profile3G()
	p.PollInterval = 0
	NewMachine(simtime.NewKernel(1), p)
}

func TestRRCPromotionAndDemotionChain(t *testing.T) {
	k := simtime.NewKernel(1)
	m := NewMachine(k, Profile3G())
	if m.State() != StatePCH {
		t.Fatalf("initial state = %v, want PCH", m.State())
	}
	var trs []Transition
	m.OnTransition(func(tr Transition) { trs = append(trs, tr) })

	ready := m.OnActivity()
	if ready != 2*time.Second {
		t.Fatalf("PCH promotion ready at %v, want 2s", ready)
	}
	if m.State() != StateDCH {
		t.Fatalf("state after activity = %v, want DCH", m.State())
	}
	// Demotion chain: DCH -5s-> FACH -12s-> PCH.
	k.RunUntil(4 * time.Second)
	if m.State() != StateDCH {
		t.Fatalf("state at 4s = %v, want DCH", m.State())
	}
	k.RunUntil(6 * time.Second)
	if m.State() != StateFACH {
		t.Fatalf("state at 6s = %v, want FACH", m.State())
	}
	k.RunUntil(18 * time.Second)
	if m.State() != StatePCH {
		t.Fatalf("state at 18s = %v, want PCH", m.State())
	}
	if len(trs) != 3 {
		t.Fatalf("got %d transitions, want 3 (promote, 2 demotes)", len(trs))
	}
	if !trs[0].Promotion || trs[1].Promotion || trs[2].Promotion {
		t.Fatalf("promotion flags wrong: %+v", trs)
	}
}

func TestRRCActivityResetsDemotionTimer(t *testing.T) {
	k := simtime.NewKernel(1)
	m := NewMachine(k, Profile3G())
	m.OnActivity()
	// Keep the channel busy every 3s: DCH->FACH timer (5s) must never fire.
	for i := 1; i <= 5; i++ {
		k.RunUntil(simtime.Time(i) * 3 * time.Second)
		m.OnActivity()
	}
	if m.State() != StateDCH {
		t.Fatalf("state = %v, want DCH while active", m.State())
	}
	k.RunUntil(100 * time.Second)
	if m.State() != StatePCH {
		t.Fatalf("state = %v, want PCH after long idle", m.State())
	}
}

func TestFACHPromotionFasterThanPCH(t *testing.T) {
	k := simtime.NewKernel(1)
	m := NewMachine(k, Profile3G())
	m.OnActivity()
	k.RunUntil(7 * time.Second) // DCH (5s) -> FACH
	if m.State() != StateFACH {
		t.Fatalf("state = %v, want FACH", m.State())
	}
	ready := m.OnActivity()
	if got := ready - k.Now(); got != 1500*time.Millisecond {
		t.Fatalf("FACH promotion delay = %v, want 1.5s", got)
	}
}

func TestLTEDRXTailTotal(t *testing.T) {
	k := simtime.NewKernel(1)
	m := NewMachine(k, ProfileLTE())
	m.OnActivity()
	// Tail: 1s CRX + 1s short DRX + 9.6s long DRX = 11.6s to IDLE.
	k.RunUntil(11500 * time.Millisecond)
	if m.State() == StateLTEIdle {
		t.Fatal("reached IDLE before the ~11.6s tail finished")
	}
	k.RunUntil(11700 * time.Millisecond)
	if m.State() != StateLTEIdle {
		t.Fatalf("state = %v, want IDLE after tail", m.State())
	}
}

func TestOnActivityDuringPromotionKeepsReadyTime(t *testing.T) {
	k := simtime.NewKernel(1)
	m := NewMachine(k, Profile3G())
	first := m.OnActivity()
	k.RunUntil(500 * time.Millisecond)
	second := m.OnActivity()
	if second != first {
		t.Fatalf("second activity during promotion got ready=%v, want %v", second, first)
	}
}

// mustDeliver sends a packet over the bearer and runs the kernel until the
// delivery callback fires, returning the delivery time.
func mustDeliver(t *testing.T, k *simtime.Kernel, send func(func())) simtime.Time {
	t.Helper()
	var at simtime.Time = -1
	send(func() { at = k.Now() })
	k.Run()
	if at < 0 {
		t.Fatal("packet never delivered")
	}
	return at
}

func TestBearerDeliversUplinkPacket(t *testing.T) {
	k := simtime.NewKernel(1)
	b := NewBearer(NewCell(k, SchedRoundRobin, 0), Profile3G(), 1)
	pkt := bytes.Repeat([]byte{0xAB}, 1400)
	at := mustDeliver(t, k, func(cb func()) { b.SendUplink(pkt, func(any) { cb() }, nil) })
	// Must include the 2s PCH->DCH promotion.
	if at < 2*time.Second {
		t.Fatalf("delivered at %v, before promotion could finish", at)
	}
	if at > 3*time.Second {
		t.Fatalf("delivered at %v, too slow for one packet", at)
	}
}

func TestBearerSegmentation3GUplink(t *testing.T) {
	k := simtime.NewKernel(1)
	b := NewBearer(NewCell(k, SchedRoundRobin, 0), Profile3G(), 1)
	mon := &recordingMonitor{}
	b.Attach(mon)
	pkt := make([]byte, 1400)
	for i := range pkt {
		pkt[i] = byte(i)
	}
	b.SendUplink(pkt, nil, nil)
	k.Run()
	var data []*PDU
	for _, p := range mon.pdus {
		if p.Dir == Uplink && !p.Retx {
			data = append(data, p)
		}
	}
	if len(data) != 35 { // 1400/40
		t.Fatalf("got %d PDUs for 1400B at 40B payload, want 35", len(data))
	}
	for i, p := range data {
		if i < len(data)-1 && p.Size != 40 {
			t.Fatalf("PDU %d size = %d, want 40", i, p.Size)
		}
	}
	// First PDU head bytes are the packet's first two bytes.
	if data[0].Head != [2]byte{0, 1} {
		t.Fatalf("first PDU head = %v", data[0].Head)
	}
	// Exactly one LI, at the last PDU's end.
	last := data[len(data)-1]
	if len(last.LI) != 1 || last.LI[0] != last.Size {
		t.Fatalf("last PDU LI = %v (size %d)", last.LI, last.Size)
	}
}

func TestPDUSpanningTwoSDUs(t *testing.T) {
	k := simtime.NewKernel(1)
	b := NewBearer(NewCell(k, SchedRoundRobin, 0), Profile3G(), 1)
	mon := &recordingMonitor{}
	b.Attach(mon)
	// 50 bytes then 50 bytes: PDU#2 carries tail of pkt1 (10B) + head of
	// pkt2 (30B); its LI must mark offset 10. This is exactly Fig. 5.
	b.SendUplink(bytes.Repeat([]byte{0x11}, 50), nil, nil)
	b.SendUplink(bytes.Repeat([]byte{0x22}, 50), nil, nil)
	k.Run()
	var data []*PDU
	for _, p := range mon.pdus {
		if !p.Retx {
			data = append(data, p)
		}
	}
	if len(data) != 3 {
		t.Fatalf("got %d PDUs, want 3 (40+40+20)", len(data))
	}
	if len(data[1].LI) != 1 || data[1].LI[0] != 10 {
		t.Fatalf("spanning PDU LI = %v, want [10]", data[1].LI)
	}
	if data[1].Head != [2]byte{0x11, 0x11} {
		t.Fatalf("spanning PDU head = %v, want SDU1 tail bytes", data[1].Head)
	}
	if data[2].Head != [2]byte{0x22, 0x22} {
		t.Fatalf("third PDU head = %v", data[2].Head)
	}
	if len(data[2].LI) != 1 || data[2].LI[0] != 20 {
		t.Fatalf("third PDU LI = %v, want [20]", data[2].LI)
	}
}

func TestInOrderDeliveryAcrossPackets(t *testing.T) {
	k := simtime.NewKernel(7)
	p := Profile3G()
	p.PDULossProb = 0.05 // force retransmissions
	b := NewBearer(NewCell(k, SchedRoundRobin, 0), p, 1)
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		b.SendUplink(bytes.Repeat([]byte{byte(i)}, 300), func(any) { order = append(order, i) }, nil)
	}
	k.Run()
	if len(order) != 20 {
		t.Fatalf("delivered %d of 20 packets", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("out-of-order delivery: %v", order)
		}
	}
}

func TestLossTriggersRetransmissionAndStatus(t *testing.T) {
	k := simtime.NewKernel(3)
	p := Profile3G()
	p.PDULossProb = 0.2
	b := NewBearer(NewCell(k, SchedRoundRobin, 0), p, 1)
	mon := &recordingMonitor{}
	b.Attach(mon)
	delivered := false
	b.SendUplink(make([]byte, 4000), func(any) { delivered = true }, nil)
	k.Run()
	if !delivered {
		t.Fatal("packet not delivered despite ARQ")
	}
	retx := 0
	for _, pdu := range mon.pdus {
		if pdu.Retx {
			retx++
		}
	}
	if retx == 0 {
		t.Fatal("no retransmissions at 20% loss over 100 PDUs")
	}
	if len(mon.statuses) == 0 {
		t.Fatal("no STATUS PDUs observed")
	}
	nacked := 0
	for _, st := range mon.statuses {
		nacked += len(st.Nack)
	}
	if nacked == 0 {
		t.Fatal("no NACKs in STATUS PDUs")
	}
}

func TestPollBitCadence(t *testing.T) {
	k := simtime.NewKernel(1)
	p := Profile3G()
	p.PDULossProb = 0
	b := NewBearer(NewCell(k, SchedRoundRobin, 0), p, 1)
	mon := &recordingMonitor{}
	b.Attach(mon)
	b.SendUplink(make([]byte, 40*100), nil, nil) // exactly 100 PDUs
	k.Run()
	polls := 0
	for _, pdu := range mon.pdus {
		if pdu.Poll {
			polls++
		}
	}
	// Every 32nd PDU plus the final one: 32,64,96,100 -> 4 polls.
	if polls != 4 {
		t.Fatalf("polls = %d, want 4", polls)
	}
	if !mon.pdus[len(mon.pdus)-1].Poll {
		t.Fatal("last PDU of burst not polled")
	}
}

func TestLTEUsesFewerPDUsThan3G(t *testing.T) {
	count := func(prof *Profile) int {
		k := simtime.NewKernel(1)
		prof.PDULossProb = 0
		b := NewBearer(NewCell(k, SchedRoundRobin, 0), prof, 1)
		mon := &recordingMonitor{}
		b.Attach(mon)
		for i := 0; i < 100; i++ {
			b.SendUplink(make([]byte, 1400), nil, nil)
		}
		k.Run()
		return len(mon.pdus)
	}
	n3g, nlte := count(Profile3G()), count(ProfileLTE())
	ratio := float64(n3g) / float64(nlte)
	// The paper observes ~2.55x more PDUs on 3G for the same transfer.
	if ratio < 2 {
		t.Fatalf("3G/LTE PDU ratio = %.2f (%d vs %d), want >= 2", ratio, n3g, nlte)
	}
}

func TestDownlinkUsesFlexiblePayload(t *testing.T) {
	k := simtime.NewKernel(1)
	b := NewBearer(NewCell(k, SchedRoundRobin, 0), Profile3G(), 1)
	mon := &recordingMonitor{}
	b.Attach(mon)
	b.SendDownlink(make([]byte, 1400), nil, nil)
	k.Run()
	if len(mon.pdus) == 0 {
		t.Fatal("no downlink PDUs")
	}
	if mon.pdus[0].Size != 480 {
		t.Fatalf("downlink PDU size = %d, want 480", mon.pdus[0].Size)
	}
	for _, p := range mon.pdus {
		if p.Dir != Downlink {
			t.Fatalf("direction = %v, want DL", p.Dir)
		}
	}
}

func TestWiFiNoPromotionDelay(t *testing.T) {
	k := simtime.NewKernel(1)
	b := NewBearer(NewCell(k, SchedRoundRobin, 0), ProfileWiFi(), 1)
	at := mustDeliver(t, k, func(cb func()) { b.SendUplink(make([]byte, 1400), func(any) { cb() }, nil) })
	if at > 50*time.Millisecond {
		t.Fatalf("WiFi delivery took %v, want < 50ms", at)
	}
}

func TestSimplified3GPromotesFaster(t *testing.T) {
	norm := func(prof *Profile) simtime.Time {
		k := simtime.NewKernel(1)
		b := NewBearer(NewCell(k, SchedRoundRobin, 0), prof, 1)
		var at simtime.Time
		b.SendUplink(make([]byte, 400), func(any) { at = k.Now() }, nil)
		k.Run()
		return at
	}
	if d, s := norm(Profile3G()), norm(ProfileSimplified3G()); s >= d {
		t.Fatalf("simplified 3G (%v) not faster than default (%v)", s, d)
	}
}

// Property: for any packet sizes, total PDU payload equals total packet
// bytes, LIs appear exactly once per SDU, and all packets are delivered.
func TestQuickSegmentationConservesBytes(t *testing.T) {
	f := func(seed int64, sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 40 {
			return true
		}
		k := simtime.NewKernel(seed)
		p := Profile3G()
		p.PDULossProb = 0
		b := NewBearer(NewCell(k, SchedRoundRobin, 0), p, 1)
		mon := &recordingMonitor{}
		b.Attach(mon)
		total, delivered := 0, 0
		for _, s := range sizes {
			n := int(s%2000) + 1
			total += n
			b.SendUplink(make([]byte, n), func(any) { delivered++ }, nil)
		}
		k.Run()
		sum, lis := 0, 0
		for _, pdu := range mon.pdus {
			sum += pdu.Size
			lis += len(pdu.LI)
		}
		return sum == total && lis == len(sizes) && delivered == len(sizes)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: delivery callbacks fire in send order even under loss.
func TestQuickInOrderUnderLoss(t *testing.T) {
	f := func(seed int64, n uint8, lossPct uint8) bool {
		count := int(n%30) + 1
		k := simtime.NewKernel(seed)
		p := ProfileLTE()
		p.PDULossProb = float64(lossPct%30) / 100
		b := NewBearer(NewCell(k, SchedRoundRobin, 0), p, 1)
		var order []int
		for i := 0; i < count; i++ {
			i := i
			b.SendDownlink(make([]byte, 2000), func(any) { order = append(order, i) }, nil)
		}
		k.Run()
		if len(order) != count {
			return false
		}
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTransitionLogDuringTransfer(t *testing.T) {
	k := simtime.NewKernel(1)
	b := NewBearer(NewCell(k, SchedRoundRobin, 0), ProfileLTE(), 1)
	mon := &recordingMonitor{}
	b.Attach(mon)
	b.SendUplink(make([]byte, 1400), nil, nil)
	k.Run()
	if len(mon.transitions) == 0 {
		t.Fatal("no RRC transitions recorded")
	}
	if mon.transitions[0].From != StateLTEIdle || mon.transitions[0].To != StateLTECRX {
		t.Fatalf("first transition %v -> %v, want IDLE -> CRX",
			mon.transitions[0].From, mon.transitions[0].To)
	}
	// After the full tail the machine must be back at IDLE.
	last := mon.transitions[len(mon.transitions)-1]
	if last.To != StateLTEIdle {
		t.Fatalf("final state %v, want IDLE", last.To)
	}
}
