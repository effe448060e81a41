package qxdm

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/radio"
	"repro/internal/simtime"
)

func fixture(t *testing.T, prof *radio.Profile, payloadBytes int) *Log {
	t.Helper()
	k := simtime.NewKernel(42)
	b := radio.NewBearer(k, prof)
	m := Attach(b)
	b.SendUplink(make([]byte, payloadBytes), nil, nil)
	b.SendDownlink(make([]byte, payloadBytes), nil, nil)
	k.Run()
	return m.Log()
}

func TestMonitorLogsPDUsAndTransitions(t *testing.T) {
	l := fixture(t, radio.Profile3G(), 4000)
	if len(l.PDUs) == 0 {
		t.Fatal("no PDUs logged")
	}
	if len(l.Transitions) == 0 {
		t.Fatal("no transitions logged")
	}
	if len(l.Statuses) == 0 {
		t.Fatal("no STATUS PDUs logged")
	}
	if l.Profile != "C1-3G" {
		t.Fatalf("profile = %q", l.Profile)
	}
	// Timestamps nondecreasing.
	for i := 1; i < len(l.PDUs); i++ {
		if l.PDUs[i].At < l.PDUs[i-1].At {
			t.Fatal("PDU log out of time order")
		}
	}
	// Both directions present.
	var ul, dl int
	for _, p := range l.PDUs {
		if p.Dir == radio.Uplink {
			ul++
		} else {
			dl++
		}
	}
	if ul == 0 || dl == 0 {
		t.Fatalf("directions missing: ul=%d dl=%d", ul, dl)
	}
}

func TestCaptureLossRates(t *testing.T) {
	prof := radio.Profile3G()
	prof.CaptureLossDL = 0.10
	prof.CaptureLossUL = 0
	k := simtime.NewKernel(7)
	b := radio.NewBearer(k, prof)
	m := Attach(b)
	for i := 0; i < 200; i++ {
		b.SendDownlink(make([]byte, 4800), nil, nil) // 10 PDUs each
	}
	k.Run()
	l := m.Log()
	if l.Missed[radio.Uplink] != 0 {
		t.Fatalf("uplink misses at 0 loss: %d", l.Missed[radio.Uplink])
	}
	missedDL := l.Missed[radio.Downlink]
	total := missedDL + countDir(l, radio.Downlink)
	frac := float64(missedDL) / float64(total)
	if frac < 0.05 || frac > 0.15 {
		t.Fatalf("downlink capture loss = %.3f over %d PDUs, want ~0.10", frac, total)
	}
}

func countDir(l *Log, d radio.Direction) int {
	n := 0
	for _, p := range l.PDUs {
		if p.Dir == d {
			n++
		}
	}
	return n
}

func TestLogFileRoundtrip(t *testing.T) {
	l := fixture(t, radio.ProfileLTE(), 3000)
	path := filepath.Join(t.TempDir(), "qxdm.json")
	if err := l.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.PDUs) != len(l.PDUs) || len(got.Transitions) != len(l.Transitions) ||
		len(got.Statuses) != len(l.Statuses) || got.Profile != l.Profile {
		t.Fatal("roundtrip lost records")
	}
	a, b := got.PDUs[0], l.PDUs[0]
	if a.At != b.At || a.Seq != b.Seq || a.Size != b.Size || a.Head != b.Head {
		t.Fatalf("first PDU mismatch: %+v vs %+v", a, b)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"not json",
		`{"pdus": [{"seq": 0, "size": -3, "head": [1, 2]}, {"seq": 1, "size": 4}]}`,
		`{"pdus": [{"seq": 0, "size": 4, "li": [5]}]}`,
		`{"pdus": [{"seq": 0, "size": 4, "li": [-1]}]}`,
	} {
		if _, err := Read(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("accepted %s", in)
		}
	}
}

func TestSetEnabledAndReset(t *testing.T) {
	prof := radio.ProfileWiFi()
	k := simtime.NewKernel(1)
	b := radio.NewBearer(k, prof)
	m := Attach(b)
	b.SendUplink(make([]byte, 1000), nil, nil)
	k.Run()
	if len(m.Log().PDUs) == 0 {
		t.Fatal("nothing logged while enabled")
	}
	m.SetEnabled(false)
	before := len(m.Log().PDUs)
	b.SendUplink(make([]byte, 1000), nil, nil)
	k.Run()
	if len(m.Log().PDUs) != before {
		t.Fatal("logged while disabled")
	}
	m.Reset()
	if len(m.Log().PDUs) != 0 || m.Log().Profile != "WiFi" {
		t.Fatal("Reset wrong")
	}
}

func TestPDURecordsPreserveLIAndPoll(t *testing.T) {
	prof := radio.Profile3G()
	prof.PDULossProb = 0
	prof.CaptureLossUL = 0
	k := simtime.NewKernel(1)
	b := radio.NewBearer(k, prof)
	m := Attach(b)
	b.SendUplink(make([]byte, 100), nil, nil) // 3 PDUs: 40+40+20, LI on last
	k.Run()
	l := m.Log()
	if len(l.PDUs) != 3 {
		t.Fatalf("got %d PDUs", len(l.PDUs))
	}
	last := l.PDUs[2]
	if len(last.LI) != 1 || last.LI[0] != 20 {
		t.Fatalf("LI not preserved: %+v", last)
	}
	if !last.Poll {
		t.Fatal("final PDU poll bit not preserved")
	}
}
