package serversim

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/simtime"
)

func TestEncodeDecodeMeta(t *testing.T) {
	meta := FBMeta{PostID: "p1", Kind: "photos", Stamp: "ts-1", Size: 12345}
	payload := EncodeMeta(meta, 5000)
	if len(payload) != 5000 {
		t.Fatalf("payload length = %d, want padded to 5000", len(payload))
	}
	got, ok := DecodeMeta(payload)
	if !ok || got != meta {
		t.Fatalf("roundtrip: %+v (ok=%v)", got, ok)
	}
}

func TestEncodeMetaSmallTotal(t *testing.T) {
	// total smaller than the header: payload grows to fit.
	payload := EncodeMeta(FBMeta{PostID: "x"}, 1)
	if _, ok := DecodeMeta(payload); !ok {
		t.Fatal("meta lost when total < header size")
	}
}

func TestDecodeMetaGarbage(t *testing.T) {
	if _, ok := DecodeMeta([]byte{0}); ok {
		t.Fatal("accepted 1-byte payload")
	}
	if _, ok := DecodeMeta([]byte{0, 5, 'x'}); ok {
		t.Fatal("accepted truncated header")
	}
}

func TestVideoCatalogProperties(t *testing.T) {
	srv := &YouTubeServer{AdEvery: 3}
	for kw := byte('a'); kw <= 'z'; kw++ {
		vids := srv.Search(string(kw))
		if len(vids) != 10 {
			t.Fatalf("keyword %c: %d videos", kw, len(vids))
		}
		for _, v := range vids {
			if v.DurationS < 45 || v.DurationS > 151 {
				t.Fatalf("video %s duration %d out of range", v.ID, v.DurationS)
			}
			if v.BitrateBps < 250_000 || v.BitrateBps > 400_000 {
				t.Fatalf("video %s bitrate %d out of range", v.ID, v.BitrateBps)
			}
			if v.TotalBytes() != v.DurationS*v.BitrateBps/8 {
				t.Fatalf("TotalBytes inconsistent for %s", v.ID)
			}
		}
	}
	// Ad assignment: digits divisible by 3.
	v, _ := srv.Video("m3")
	if v.AdID != "ad-m3" {
		t.Fatalf("m3 AdID = %q", v.AdID)
	}
	v, _ = srv.Video("m4")
	if v.AdID != "" {
		t.Fatalf("m4 AdID = %q, want none", v.AdID)
	}
	ad, err := srv.Video("ad-m3")
	if err != nil || !ad.IsAd || ad.DurationS < 15 || ad.DurationS > 30 {
		t.Fatalf("ad spec wrong: %+v err=%v", ad, err)
	}
}

func TestClusterInstallServesDNS(t *testing.T) {
	k := simtime.NewKernel(1)
	n := netsim.NewNetwork(radio.NewBearer(radio.NewCell(k, radio.SchedRoundRobin, 0), radio.ProfileWiFi(), 1), netip.MustParseAddr("10.20.0.2"), 5*time.Millisecond)
	c := Install(n)
	if c.Facebook == nil || c.YouTube == nil || c.Web == nil || c.DNS == nil {
		t.Fatal("cluster incomplete")
	}
	r := netsim.NewResolver(n.Device, netsim.Endpoint{Addr: DNSAddr, Port: netsim.DNSPort})
	for _, host := range []string{FacebookHost, YouTubeHost, WebHostBase} {
		resolved := false
		r.Resolve(host, func(a netip.Addr, ok bool) { resolved = ok })
		k.Run()
		if !resolved {
			t.Fatalf("host %s not in zone", host)
		}
	}
}

func TestWebPageSpecRanges(t *testing.T) {
	srv := &WebServer{}
	seen := map[int]bool{}
	for _, p := range []string{"/a", "/b", "/c", "/d", "/e"} {
		spec := srv.Page(p)
		if spec.HTMLBytes < 25_000 || spec.HTMLBytes >= 60_000 {
			t.Fatalf("%s HTML %d out of range", p, spec.HTMLBytes)
		}
		if len(spec.Resources) < 4 || len(spec.Resources) > 9 {
			t.Fatalf("%s resources %d out of range", p, len(spec.Resources))
		}
		for _, r := range spec.Resources {
			if r < 8_000 || r >= 48_000 {
				t.Fatalf("%s resource %d out of range", p, r)
			}
		}
		seen[spec.TotalBytes()] = true
	}
	if len(seen) < 3 {
		t.Fatal("page sizes suspiciously uniform")
	}
}
