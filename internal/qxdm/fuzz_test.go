package qxdm_test

import (
	"bytes"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core/analyzer"
	"repro/internal/netsim"
	"repro/internal/power"
	"repro/internal/qxdm"
	"repro/internal/radio"
	"repro/internal/simtime"
)

// fuzzPackets sends three IP packets each way over a 3G bearer and returns
// them as the mapper sees them in a capture: uplink stamped when sent,
// downlink when delivered, plus the QxDM log of the exchange. The packets
// stay fixed across fuzz inputs; the valid seed input is that log.
func fuzzPackets() (ul, dl []analyzer.MappedPacket, log *qxdm.Log) {
	k := simtime.NewKernel(3)
	b := radio.NewBearer(k, radio.Profile3G())
	mon := qxdm.Attach(b)
	dev := netsim.Endpoint{Addr: netip.MustParseAddr("10.0.0.2"), Port: 40000}
	srv := netsim.Endpoint{Addr: netip.MustParseAddr("93.184.216.34"), Port: 80}
	for i := 0; i < 3; i++ {
		up := (&netsim.Packet{Src: dev, Dst: srv, Proto: netsim.ProtoTCP, Flags: netsim.FlagPSH,
			Seq: uint32(1 + 90*i), Payload: bytes.Repeat([]byte{byte('a' + i)}, 90)}).Marshal()
		down := (&netsim.Packet{Src: srv, Dst: dev, Proto: netsim.ProtoTCP, Flags: netsim.FlagPSH,
			Seq: uint32(1 + 700*i), Payload: bytes.Repeat([]byte{byte('A' + i)}, 700)}).Marshal()
		k.At(time.Duration(i)*300*time.Millisecond, func() {
			ul = append(ul, analyzer.MappedPacket{At: k.Now(), Data: up})
			b.SendUplink(up, nil, nil)
			b.SendDownlink(down, func(any) {
				dl = append(dl, analyzer.MappedPacket{At: k.Now(), Data: down})
			}, nil)
		})
	}
	k.Run()
	return ul, dl, mon.Log()
}

// FuzzQxDMLog feeds arbitrary bytes to the QxDM log reader and every
// analysis the offline tools run on a log it accepts. Bad input must come
// back as a Read error, never as a panic further on.
func FuzzQxDMLog(f *testing.F) {
	ul, dl, _ := fuzzPackets()
	profiles := map[string]*radio.Profile{}
	for _, p := range []*radio.Profile{radio.Profile3G(), radio.ProfileLTE(), radio.ProfileWiFi()} {
		profiles[p.Name] = p
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := qxdm.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var ulPDUs, dlPDUs []qxdm.PDURecord
		var end simtime.Time
		for _, p := range log.PDUs {
			if p.Dir == radio.Uplink {
				ulPDUs = append(ulPDUs, p)
			} else {
				dlPDUs = append(dlPDUs, p)
			}
			end = max(end, p.At)
		}
		for _, tr := range log.Transitions {
			end = max(end, tr.At)
		}
		analyzer.LongJumpMap(ul, ulPDUs)
		analyzer.LongJumpMap(dl, dlPDUs)
		analyzer.DiagnoseMap(ul, ulPDUs)
		analyzer.DiagnoseMap(dl, dlPDUs)
		analyzer.OTARTTSamples(log, radio.Uplink)
		analyzer.OTARTTSamples(log, radio.Downlink)
		prof := profiles[log.Profile]
		if prof == nil {
			prof = radio.Profile3G()
		}
		power.Analyze(prof, log, 0, end)
	})
}

// readSeed decodes one checked-in corpus entry of a []byte fuzz target.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	lit, ok2 := strings.CutSuffix(strings.TrimSpace(lit), ")")
	data, err := strconv.Unquote(lit)
	if !ok || !ok2 || err != nil {
		t.Fatalf("%s is not a []byte corpus entry", path)
	}
	return []byte(data)
}

// TestFuzzSeedMapsItsPackets keeps the valid seed meaningful: it is the log
// of fuzzPackets' exchange, so the mapper maps every fixed packet on it.
func TestFuzzSeedMapsItsPackets(t *testing.T) {
	ul, dl, want := fuzzPackets()
	log, err := qxdm.Read(bytes.NewReader(readSeed(t, "testdata/fuzz/FuzzQxDMLog/valid-3g")))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.PDUs) != len(want.PDUs) || len(log.Transitions) != len(want.Transitions) {
		t.Fatalf("seed has %d PDUs and %d transitions, the exchange logs %d and %d",
			len(log.PDUs), len(log.Transitions), len(want.PDUs), len(want.Transitions))
	}
	var ulPDUs, dlPDUs []qxdm.PDURecord
	for _, p := range log.PDUs {
		if p.Dir == radio.Uplink {
			ulPDUs = append(ulPDUs, p)
		} else {
			dlPDUs = append(dlPDUs, p)
		}
	}
	if r := analyzer.LongJumpMap(ul, ulPDUs); r.Mapped != 3 || r.Total != 3 {
		t.Errorf("uplink mapped %d of %d, want 3 of 3", r.Mapped, r.Total)
	}
	if r := analyzer.LongJumpMap(dl, dlPDUs); r.Mapped != 3 || r.Total != 3 {
		t.Errorf("downlink mapped %d of %d, want 3 of 3", r.Mapped, r.Total)
	}
}
