package radio

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"
	"time"

	"repro/internal/simtime"
)

// oneBearer builds the bearer under test: alone on a round-robin cell
// driven by a fresh kernel at seed.
func oneBearer(seed int64, prof *Profile) (*simtime.Kernel, *Bearer, *Cell) {
	k := simtime.NewKernel(seed)
	cell := NewCell(k, SchedRoundRobin, 0)
	return k, NewBearer(cell, prof, 1), cell
}

// scheduleRun drives one bearer through a scenario and hashes every
// radio-layer event in the order it happens: each PDU as it finishes on
// the air, each STATUS, each RRC transition and each SDU delivery.
type scheduleRun struct {
	k    *simtime.Kernel
	b    *Bearer
	cell *Cell
	h    hash.Hash
	// sent and got count the SDUs sent and record the indices delivered,
	// per direction, so delivery can be checked exactly-once and in order.
	sent [2]int
	got  [2][]int
	// onPDU, when set, sees each PDU after it is hashed (handover triggers).
	onPDU func(*PDU)
}

func (r *scheduleRun) RRCTransition(tr Transition) {
	fmt.Fprintf(r.h, "rrc %d %v %v %v\n", tr.At, tr.From, tr.To, tr.Promotion)
}

func (r *scheduleRun) DataPDU(p *PDU) {
	fmt.Fprintf(r.h, "pdu %d %v %d %v %v %v %v %d %d\n",
		p.Seq, p.Dir, p.Size, p.Head, p.LI, p.Poll, p.Retx, p.SentAt, p.StreamOff)
	if r.onPDU != nil {
		r.onPDU(p)
	}
}

func (r *scheduleRun) StatusPDU(st StatusPDU) {
	fmt.Fprintf(r.h, "status %d %v %d %v\n", st.At, st.Dir, st.AckSeq, st.Nack)
}

// sendPairs sends n downlink SDUs of 1400 B and n uplink SDUs of 350 B,
// interleaved, each payload patterned by its direction and index.
func (r *scheduleRun) sendPairs(n int) {
	for i := 0; i < n; i++ {
		r.send(Downlink, 1400)
		r.send(Uplink, 350)
	}
}

func (r *scheduleRun) send(dir Direction, size int) {
	idx := r.sent[dir]
	r.sent[dir]++
	payload := make([]byte, size)
	for j := range payload {
		payload[j] = byte(idx*7 + j + int(dir)*101)
	}
	deliver := func(any) {
		r.got[dir] = append(r.got[dir], idx)
		fmt.Fprintf(r.h, "deliver %v %d %d\n", dir, idx, r.k.Now())
	}
	if dir == Uplink {
		r.b.SendUplink(payload, deliver, nil)
	} else {
		r.b.SendDownlink(payload, deliver, nil)
	}
}

// handoverAt begins a handover the first time PDU seq of direction dir
// goes on the air and completes it 70 ms later on the same cell. (WiFi's
// 1400 B uplink PDUs carry the 40 uplink SDUs in 10 PDUs, so its uplink
// handover never fires: that case pins the untouched schedule.)
func (r *scheduleRun) handoverAt(dir Direction, seq uint32) {
	r.onPDU = func(p *PDU) {
		if p.Dir != dir || p.Seq != seq || p.Retx {
			return
		}
		fmt.Fprintf(r.h, "handover %d\n", r.k.Now())
		r.b.BeginHandover()
		r.k.After(70*time.Millisecond, func() { r.b.CompleteHandover(r.cell, 1) })
	}
}

// scheduleScenarios are the traffic patterns the digest test runs on every
// profile; each drives the kernel until no event is left.
var scheduleScenarios = []struct {
	name string
	run  func(r *scheduleRun)
}{
	{"burst", func(r *scheduleRun) {
		r.sendPairs(40)
		r.k.Run()
	}},
	{"outage", func(r *scheduleRun) {
		r.sendPairs(40)
		r.b.ScheduleOutage(30*time.Millisecond, 200*time.Millisecond)
		r.k.At(400*time.Millisecond, func() { r.sendPairs(10) })
		r.k.Run()
	}},
	{"handover-dl20", func(r *scheduleRun) {
		r.handoverAt(Downlink, 20)
		r.sendPairs(40)
		r.k.Run()
	}},
	{"handover-ul15", func(r *scheduleRun) {
		r.handoverAt(Uplink, 15)
		r.sendPairs(40)
		r.k.Run()
	}},
	{"idle-gap", func(r *scheduleRun) {
		r.sendPairs(5)
		r.k.Run()
		r.k.At(r.k.Now()+20*time.Second, func() { r.sendPairs(5) })
		r.k.Run()
	}},
	{"bulk", func(r *scheduleRun) {
		r.sendPairs(1500)
		r.k.Run()
	}},
}

// scheduleProfiles are the radio profiles the digest test covers: the four
// technologies, heavy air loss, and a 3 s over-the-air RTT under which the
// bulk scenario fills the 2048-PDU ARQ window and stalls.
func scheduleProfiles() []struct {
	name string
	prof *Profile
} {
	withLoss := func(p *Profile) *Profile { p.PDULossProb = 0.2; return p }
	withRTT := func(p *Profile) *Profile { p.OTARTT = 3 * time.Second; return p }
	return []struct {
		name string
		prof *Profile
	}{
		{"lte", ProfileLTE()},
		{"3g", Profile3G()},
		{"wifi", ProfileWiFi()},
		{"3g-simple", ProfileSimplified3G()},
		{"lte-loss", withLoss(ProfileLTE())},
		{"3g-loss", withLoss(Profile3G())},
		{"lte-rtt3s", withRTT(ProfileLTE())},
		{"3g-rtt3s", withRTT(Profile3G())},
	}
}

// scheduleDigests pins the event schedule of every profile × scenario at
// seed 7. They were recorded from standalone bearers.
var scheduleDigests = map[string]string{
	"lte/burst":               "3f10894140471563b558de83f716707381a216de0632ffb5f861719b3b5d0c37",
	"lte/outage":              "6eacd4b07b3439de89e2c56c732b28168a5dbda756b6b33a75f47a6299b55836",
	"lte/handover-dl20":       "5083dfe48cf61cbf10db25ee20ace3181b198937d0925f6cee196ba6fb7815d3",
	"lte/handover-ul15":       "4d3ab2beb7fa79da38e02c59db5448c43f07ec2f5c548d613578ac65f9d65555",
	"lte/idle-gap":            "42df0efec25ad142c75140f717a7589182122480a038422b91dc2e48a13d3abd",
	"lte/bulk":                "c5834064e5bb6294499a80dd7bed6208475e05508e5f32abbf3d28482874d0e6",
	"3g/burst":                "1c9c6dc934026d5686106857bdf04fdd0b4e36c8ad888f5d822af7d41c390081",
	"3g/outage":               "f391328df463c99fa8baa47814d418ff055544ff857bb83b4cce481f291e31ef",
	"3g/handover-dl20":        "27bb8e429609e4abea0af386df7b5d68a245e9095eb844d363ba6867cd4ed8de",
	"3g/handover-ul15":        "fbba36631e48167b6cff9bcae8fa0011cbd510c53a6fdb37febc7609edd59a83",
	"3g/idle-gap":             "5f8c61f445bf1aa95969841e18693a2e6a68ffb5fab833a7da2ce5c4bf4468dd",
	"3g/bulk":                 "d06fe2036fc2c6708e3c71d4d0e68a81516c4f38333b7432cd56a619c785e1b8",
	"wifi/burst":              "c03a468f75b06613d24052cf004a1b3dd9efee38adfbfa1d9108fd9a7b373bba",
	"wifi/outage":             "c09ddcae34bf0a040d3f143bba145de00f6e9b6a694e762a272442f7d8618c7c",
	"wifi/handover-dl20":      "84d4cf7b6ca9c35ae8ffa0cde1fd2a54dee2814f21572f43bb98ca92888750f1",
	"wifi/handover-ul15":      "c03a468f75b06613d24052cf004a1b3dd9efee38adfbfa1d9108fd9a7b373bba",
	"wifi/idle-gap":           "83c07d7b2225356d9c38582a34daae9a59bdd76488607f11bc15b9d754753b37",
	"wifi/bulk":               "cb40ab7c7807e46ad62c0257ab67201874841d6f4c976b6a0ed030a5fe125ef8",
	"3g-simple/burst":         "7461b51542e4246c06f24b9d397c4ca773e2c31f4a26d07e1985ad9d3deb99e2",
	"3g-simple/outage":        "3d28c65613fbb2e5134a2a4eea7f96e872c0cfca260254e14663840c040e5e24",
	"3g-simple/handover-dl20": "340bc4c1742047a18822a7290447f7a3b876a2193a468fa64c1c1bb16440201f",
	"3g-simple/handover-ul15": "51574034138d8b51d495d92ee81fa680b6d519c85fb614896a004175cae4b64d",
	"3g-simple/idle-gap":      "5d93a0be4c4a64af730b09078d466e74cd01ed61d1ab00c0402bc4a394adb413",
	"3g-simple/bulk":          "6af30bc68a3fe76622be755782c776103c3b86ef5ecc8476deefd73aaafa881f",
	"lte-loss/burst":          "cd94422fc44b83eb5f878cc324f19ddfaed6510c8a82738d0129441e783ea00d",
	"lte-loss/outage":         "818d2f637fecf518651c7e2841c9150322b0be2cd303414a7b012e83a0f30afa",
	"lte-loss/handover-dl20":  "d36c6d0464b40251545cde823fb5099d839170c6a7e4221ddb4d1812b2518020",
	"lte-loss/handover-ul15":  "0f34165b6c833b2d35d0bf3830d60f068e072391c9963fcdfe6690f4cdccf9bc",
	"lte-loss/idle-gap":       "d7c3fb14b7faca59ded6564005d4eecc51881b170bd9b4fde12df915f3aa6e68",
	"lte-loss/bulk":           "1438252f9c5eccc31e23a9d7db6b5b879cbc0e646909a7b573b617ef612e1cd8",
	"3g-loss/burst":           "f5382dfd94b40590d5692da5122c895f7a26f36caf9041061933726e831c8862",
	"3g-loss/outage":          "2b5387bda8f8a9c33d462742155495edbadfa22f8b0885cd891fb66f074e36b4",
	"3g-loss/handover-dl20":   "5a6835a04dc7f4986092043ea34ffd63bdae9f4cce34c28dd6ac28ef2f6a48be",
	"3g-loss/handover-ul15":   "724319a52f73d4c0fb87663d7ba5045881883fa9388acc7a86d7df5a0e79d233",
	"3g-loss/idle-gap":        "c240570e1d49fd21735c21c77a4571ab043e36a08c0741a747ee005fe72bfb6d",
	"3g-loss/bulk":            "99f0aab567366028b6678c85398d2d0b35a5dc55ce180c91a0a57d9e2064862b",
	"lte-rtt3s/burst":         "c81061e53e72fe58e10502b35400349209d1933ef1d2b2516e214bf82fa82926",
	"lte-rtt3s/outage":        "bea8a61508efee6e8664a6bd4b030eac57401801bfe57c815903fb01549a8fc8",
	"lte-rtt3s/handover-dl20": "7afe77838d3b440e4ecc98882c39134d1a2141c876843245cb6bb71cc5194035",
	"lte-rtt3s/handover-ul15": "ee3e0846b90b1c879d86b37e63716cdcf535aae3cd55783c116469739eb79e36",
	"lte-rtt3s/idle-gap":      "28ad5b412ed0622868576ca99bb323dd5c27094f5c4cc84e2b01552cf248a1fa",
	"lte-rtt3s/bulk":          "32fa5097a9af62733d94a7af4cf3e8fb14800afb81ca6053d0fd5efce3c003ce",
	"3g-rtt3s/burst":          "a2a50e7d2ce49f41a1ac4e4781cb1e6c8453e7ccb9b8523c152fbbc4a2fac439",
	"3g-rtt3s/outage":         "c116381f989b3147374a20fda91e49f6d194e1269b7b3ee1af29283404adc0c3",
	"3g-rtt3s/handover-dl20":  "4647998862a7b2abcdd5f42770c4c1368e4afaeecf485ae432279d59abd5a9b3",
	"3g-rtt3s/handover-ul15":  "2792813567882aa20f5be33b1a1ef84077670210fa14d50aef9b87fa0fb9e225",
	"3g-rtt3s/idle-gap":       "b0802bf789b1a4c906a3683c12fc4aabf41af6068d7ef388ac5d0c638c27086b",
	"3g-rtt3s/bulk":           "269691840c0faafc447b50c65b6e7f9f02cbeee1962005c74fb7366de5da3b79",
}

// TestOneBearerScheduleDigest pins, by digest, every PDU, STATUS, RRC
// transition and SDU delivery time of one bearer across profiles and
// scenarios (bursts, an outage, handovers in either direction, an idle
// gap and a window-stalling bulk transfer), and checks that every SDU is
// delivered exactly once and in order in each direction.
func TestOneBearerScheduleDigest(t *testing.T) {
	for _, pc := range scheduleProfiles() {
		for _, sc := range scheduleScenarios {
			name := pc.name + "/" + sc.name
			k, b, cell := oneBearer(7, pc.prof.Clone())
			r := &scheduleRun{k: k, b: b, cell: cell, h: sha256.New()}
			b.Attach(r)
			sc.run(r)
			for dir, got := range r.got {
				if len(got) != r.sent[dir] {
					t.Errorf("%s: %v delivered %d of %d SDUs", name, Direction(dir), len(got), r.sent[dir])
					continue
				}
				for i, idx := range got {
					if idx != i {
						t.Errorf("%s: %v delivery %d was SDU %d", name, Direction(dir), i, idx)
						break
					}
				}
			}
			got := hex.EncodeToString(r.h.Sum(nil))
			if want := scheduleDigests[name]; got != want {
				t.Errorf("%s: digest %s, want %s\n\t%q: %q,", name, got, want, name, got)
			}
		}
	}
}
