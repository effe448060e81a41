package fleet_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/simtime"
)

// dlPDUTap records every downlink data PDU a bearer puts on the air.
type dlPDUTap struct{ pdus []radio.PDU }

func (t *dlPDUTap) RRCTransition(radio.Transition) {}
func (t *dlPDUTap) StatusPDU(radio.StatusPDU)      {}
func (t *dlPDUTap) DataPDU(p *radio.PDU) {
	if p.Dir == radio.Downlink {
		t.pdus = append(t.pdus, *p)
	}
}

// TestDownlinkDuplicateKeepsWireBytes checks that every downlink PDU's head
// bytes are the bytes the device received at that offset of the downlink
// SDU stream, with a fault chain that duplicates half the downlink packets.
// Each forwarded copy must carry its own wire buffer: when both copies
// shared one, RLC released it once per copy and the next marshal overwrote
// the second copy while it was still queued.
func TestDownlinkDuplicateKeepsWireBytes(t *testing.T) {
	const horizon = 2 * time.Minute
	f, err := fleet.Build(fleet.Scenario{
		Seed:     5,
		UEs:      []fleet.UESpec{{Faults: &faults.Plan{DupProb: 0.5}}},
		Workload: fleet.BrowseWorkload{Pages: 3, ThinkTime: 5 * time.Second},
	}, fleet.WithHorizon(horizon))
	if err != nil {
		t.Fatal(err)
	}
	ue := f.UEs[0]
	tap := &dlPDUTap{}
	ue.Net.Bearer.Attach(tap)
	// RLC delivers in order, so the device's inbound packets, marshaled and
	// concatenated, are the downlink SDU byte stream.
	var stream []byte
	ue.Net.Device.AttachCapture(func(_ simtime.Time, p *netsim.Packet, inbound bool) {
		if inbound {
			stream = p.MarshalAppend(stream)
		}
	})
	f.Drive()
	f.RunTo(horizon)

	if strings.Contains(ue.FaultDL.Stats(), ",n=0)") {
		t.Fatalf("no downlink duplicates: %s", ue.FaultDL.Stats())
	}
	checked, bad := 0, 0
	for _, p := range tap.pdus {
		n := min(p.Size, 2)
		if p.StreamOff+uint64(n) > uint64(len(stream)) {
			continue // not delivered by the horizon
		}
		checked++
		if string(p.Head[:n]) != string(stream[p.StreamOff:p.StreamOff+uint64(n)]) {
			bad++
		}
	}
	if checked < 500 {
		t.Fatalf("only %d delivered downlink PDUs; the workload did not run", checked)
	}
	if bad > 0 {
		t.Fatalf("%d of %d downlink PDUs carry head bytes that differ from the delivered stream", bad, checked)
	}
}
