package fleet_test

import (
	"testing"
	"time"

	"repro/internal/apps/serversim"
	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/radio"
)

func TestDefaultsAndWiring(t *testing.T) {
	b := fleet.MustOneUE(1, nil, fleet.UESpec{})
	if b.Net.Bearer.Profile().Tech != radio.TechLTE {
		t.Fatal("default profile should be LTE")
	}
	if b.Capture == nil || b.QxDM == nil {
		t.Fatal("collectors missing by default")
	}
	if b.Facebook == nil || b.YouTube == nil || b.Browser == nil {
		t.Fatal("apps missing")
	}
	if b.Servers.Facebook == nil || b.Servers.YouTube == nil || b.Servers.Web == nil {
		t.Fatal("servers missing")
	}
}

func TestDisableCollectors(t *testing.T) {
	b := fleet.MustOneUE(2, nil, fleet.UESpec{DisableQxDM: true, DisablePcap: true})
	if b.Capture != nil || b.QxDM != nil {
		t.Fatal("collectors present despite disable flags")
	}
	// Session must tolerate missing collectors.
	s := b.Session(nil)
	if s.Packets != nil || s.Radio != nil {
		t.Fatal("session carries data from disabled collectors")
	}
	if s.Profile == nil || s.DeviceAddr != fleet.BaseAddr {
		t.Fatal("session metadata wrong")
	}
}

func TestCoreDelayDefaultsByTech(t *testing.T) {
	for _, c := range []struct {
		prof *radio.Profile
		want time.Duration
	}{
		{radio.Profile3G(), 35 * time.Millisecond},
		{radio.ProfileLTE(), 20 * time.Millisecond},
		{radio.ProfileWiFi(), 12 * time.Millisecond},
	} {
		b := fleet.MustOneUE(3, c.prof, fleet.UESpec{})
		if b.Net.CoreDelay != c.want {
			t.Errorf("%s core delay = %v, want %v", c.prof.Name, b.Net.CoreDelay, c.want)
		}
	}
}

func TestThrottleMechanismByTech(t *testing.T) {
	b3 := fleet.MustOneUE(5, radio.Profile3G(), fleet.UESpec{})
	b3.Throttle(128e3)
	if _, ok := b3.Net.DLQdisc.(*netsim.Shaper); !ok {
		t.Fatalf("3G throttle is %T, want shaper", b3.Net.DLQdisc)
	}
	bl := fleet.MustOneUE(6, radio.ProfileLTE(), fleet.UESpec{})
	bl.Throttle(128e3)
	if _, ok := bl.Net.DLQdisc.(*netsim.Policer); !ok {
		t.Fatalf("LTE throttle is %T, want policer", bl.Net.DLQdisc)
	}
}

func TestDeterminismAcrossBeds(t *testing.T) {
	run := func() (int, int) {
		b := fleet.MustOneUE(77, radio.Profile3G(), fleet.UESpec{})
		b.Facebook.Connect()
		b.K.RunUntil(30 * time.Second)
		return b.Capture.Len(), len(b.QxDM.Log().PDUs)
	}
	p1, d1 := run()
	p2, d2 := run()
	if p1 != p2 || d1 != d2 {
		t.Fatalf("same seed diverged: packets %d/%d, PDUs %d/%d", p1, p2, d1, d2)
	}
	if p1 == 0 {
		t.Fatal("no traffic captured during connect")
	}
}

func TestSessionBundlesLogs(t *testing.T) {
	b := fleet.MustOneUE(8, nil, fleet.UESpec{})
	b.Facebook.Connect()
	b.K.RunUntil(10 * time.Second)
	s := b.Session(nil)
	if len(s.Packets) == 0 {
		t.Fatal("session has no packets")
	}
	if s.Radio == nil || len(s.Radio.PDUs) == 0 {
		t.Fatal("session has no radio log")
	}
	if s.Profile.Name != "C1-LTE" {
		t.Fatalf("profile %q", s.Profile.Name)
	}
	// DNS zone serves the canonical hosts.
	if serversim.FacebookHost == "" {
		t.Fatal("unreachable")
	}
}
