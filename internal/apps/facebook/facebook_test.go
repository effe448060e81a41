package facebook_test

import (
	"testing"
	"time"

	"repro/internal/apps/facebook"
	"repro/internal/apps/serversim"
	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/simtime"
	"repro/internal/uisim"
)

func newBed(t *testing.T, cfg facebook.Config) *fleet.UE {
	t.Helper()
	b := fleet.MustOneUE(11, radio.ProfileLTE(), fleet.UESpec{Facebook: cfg})
	b.Facebook.Connect()
	b.K.RunUntil(2 * time.Second) // connect + subscribe
	return b
}

// feedShows reports whether the feed contains text (works for both
// variants by scanning the app's screen tree).
func feedShows(b *fleet.UE, substr string) bool {
	found := false
	var walk func(v *uisim.View)
	walk = func(v *uisim.View) {
		if contains(v.Text(), substr) {
			found = true
		}
		for _, c := range v.Children() {
			walk(c)
		}
	}
	walk(b.Facebook.Screen.Root())
	return found
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestStatusPostLocalEcho(t *testing.T) {
	b := newBed(t, facebook.DefaultConfig())
	in := uisim.NewInstrumentation(b.K, b.Facebook.Screen)
	b.Facebook.ComposePost(facebook.PostStatus, "stamp-123")
	start := b.K.Now()
	if _, err := in.Click(uisim.Signature{ID: facebook.IDPostButton}); err != nil {
		t.Fatal(err)
	}
	var shownAt simtime.Time = -1
	b.Facebook.Screen.WatchScreen(func(r *uisim.View) bool {
		v := r.Find(uisim.Signature{ID: "com.facebook.katana:id/feed_item"})
		return v != nil && contains(v.Text(), "stamp-123")
	}, func(at simtime.Time) { shownAt = at })
	b.K.RunUntil(start + 10*time.Second)
	if shownAt < 0 {
		t.Fatal("status never appeared in feed")
	}
	latency := time.Duration(shownAt - start)
	// Local echo: ~0.7-0.9s device prep + draw, well under any network RTT
	// with promotion + upload + server processing.
	if latency > 1500*time.Millisecond {
		t.Fatalf("status post took %v; local echo should not wait for the network", latency)
	}
}

func TestPhotoPostWaitsForServerAck(t *testing.T) {
	b := newBed(t, facebook.DefaultConfig())
	in := uisim.NewInstrumentation(b.K, b.Facebook.Screen)
	b.Facebook.ComposePost(facebook.PostPhotos, "photo-stamp")
	start := b.K.Now()
	if _, err := in.Click(uisim.Signature{ID: facebook.IDPostButton}); err != nil {
		t.Fatal(err)
	}
	var shownAt simtime.Time = -1
	b.Facebook.Screen.WatchScreen(func(r *uisim.View) bool {
		v := r.Find(uisim.Signature{ID: "com.facebook.katana:id/feed_item"})
		return v != nil && contains(v.Text(), "photo-stamp")
	}, func(at simtime.Time) { shownAt = at })
	b.K.RunUntil(start + 60*time.Second)
	if shownAt < 0 {
		t.Fatal("photo post never appeared")
	}
	latency := time.Duration(shownAt - start)
	// 380KB upload + prep + server processing: must be well beyond the
	// local-echo regime.
	if latency < 2*time.Second {
		t.Fatalf("photo post appeared after %v; should wait for upload+ack", latency)
	}
	// And the upload bytes must actually be on the wire.
	var upBytes int
	for _, r := range b.Capture.Records() {
		if !r.Inbound {
			upBytes += len(r.Data)
		}
	}
	if upBytes < facebook.UploadBytesPhotos {
		t.Fatalf("uplink bytes = %d, want >= %d", upBytes, facebook.UploadBytesPhotos)
	}
}

func TestPullToUpdateCycle(t *testing.T) {
	b := newBed(t, facebook.DefaultConfig())
	in := uisim.NewInstrumentation(b.K, b.Facebook.Screen)
	var barShown, barHidden simtime.Time = -1, -1
	b.Facebook.Screen.WatchScreen(func(r *uisim.View) bool {
		v := r.Find(uisim.Signature{ID: facebook.IDFeedProgress})
		return v != nil && v.Shown()
	}, func(at simtime.Time) { barShown = at })

	if _, err := in.Scroll(uisim.Signature{ID: facebook.IDFeedList}, 200); err != nil {
		t.Fatal(err)
	}
	b.K.RunUntil(b.K.Now() + 500*time.Millisecond)
	b.Facebook.Screen.WatchScreen(func(r *uisim.View) bool {
		v := r.Find(uisim.Signature{ID: facebook.IDFeedProgress})
		return v != nil && !v.Shown()
	}, func(at simtime.Time) { barHidden = at })
	b.K.RunUntil(b.K.Now() + 20*time.Second)

	if barShown < 0 || barHidden < 0 {
		t.Fatalf("progress bar cycle incomplete: shown=%v hidden=%v", barShown, barHidden)
	}
	if barHidden <= barShown {
		t.Fatal("progress bar hidden before shown")
	}
	if b.Facebook.FeedSize() == 0 {
		t.Fatal("feed not updated")
	}
}

func TestWebViewUpdateSlowerAndHeavier(t *testing.T) {
	run := func(variant string) (time.Duration, int) {
		cfg := facebook.DefaultConfig()
		cfg.Variant = variant
		b := newBed(t, cfg)
		feedSig := uisim.Signature{ID: facebook.IDFeedList}
		if variant == serversim.VariantWebView {
			feedSig = uisim.Signature{ID: facebook.IDFeedWeb}
		}
		in := uisim.NewInstrumentation(b.K, b.Facebook.Screen)
		capBefore := devBytesIn(b)
		start := b.K.Now()
		if _, err := in.Scroll(feedSig, 200); err != nil {
			t.Fatal(err)
		}
		var doneAt simtime.Time = -1
		b.K.RunUntil(start + 400*time.Millisecond)
		b.Facebook.Screen.WatchScreen(func(r *uisim.View) bool {
			v := r.Find(uisim.Signature{ID: facebook.IDFeedProgress})
			return v != nil && !v.Shown()
		}, func(at simtime.Time) { doneAt = at })
		b.K.RunUntil(start + 30*time.Second)
		if doneAt < 0 {
			t.Fatalf("%s update never finished", variant)
		}
		return time.Duration(doneAt - start), devBytesIn(b) - capBefore
	}
	lvTime, lvBytes := run(serversim.VariantListView)
	wvTime, wvBytes := run(serversim.VariantWebView)
	if wvTime <= lvTime {
		t.Fatalf("WebView update (%v) not slower than ListView (%v)", wvTime, lvTime)
	}
	if float64(wvBytes) < 1.5*float64(lvBytes) {
		t.Fatalf("WebView downlink (%d) not substantially heavier than ListView (%d)", wvBytes, lvBytes)
	}
}

func devBytesIn(b *fleet.UE) int {
	n := 0
	for _, r := range b.Capture.Records() {
		if r.Inbound {
			n += len(r.Data)
		}
	}
	return n
}

func TestNotificationDrivenUpdate(t *testing.T) {
	b := newBed(t, facebook.DefaultConfig())
	if b.Servers.Facebook.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want 1", b.Servers.Facebook.Subscribers())
	}
	b.Servers.Facebook.InjectFriendPost("friend-1", 4000)
	b.K.RunUntil(b.K.Now() + 30*time.Second)
	if !feedShows(b, "friend-1") {
		t.Fatal("friend post never reached the feed")
	}
}

func TestBackgroundRefreshScalesWithInterval(t *testing.T) {
	traffic := func(interval time.Duration) int {
		cfg := facebook.DefaultConfig()
		cfg.RefreshInterval = interval
		b := fleet.MustOneUE(3, radio.ProfileLTE(), fleet.UESpec{Facebook: cfg, DisableQxDM: true})
		b.Facebook.Connect()
		b.K.RunUntil(4 * time.Hour)
		total := 0
		for _, r := range b.Capture.Records() {
			total += len(r.Data)
		}
		return total
	}
	t30 := traffic(30 * time.Minute)
	t60 := traffic(60 * time.Minute)
	t120 := traffic(120 * time.Minute)
	if !(t30 > t60 && t60 > t120) {
		t.Fatalf("background traffic not monotonic in interval: 30m=%d 1h=%d 2h=%d", t30, t60, t120)
	}
}

func TestNoRefreshNoTimerTraffic(t *testing.T) {
	cfg := facebook.DefaultConfig()
	cfg.RefreshInterval = 0
	b := fleet.MustOneUE(4, nil, fleet.UESpec{Facebook: cfg, DisableQxDM: true})
	b.Facebook.Connect()
	b.K.RunUntil(30 * time.Second)
	base := len(b.Capture.Records())
	b.K.RunUntil(4 * time.Hour)
	if got := len(b.Capture.Records()); got != base {
		t.Fatalf("idle app generated %d extra packets", got-base)
	}
}

func TestCloseStopsBackgroundRefresh(t *testing.T) {
	cfg := facebook.DefaultConfig()
	cfg.RefreshInterval = 10 * time.Minute
	b := fleet.MustOneUE(5, nil, fleet.UESpec{Facebook: cfg, DisableQxDM: true})
	b.Facebook.Connect()
	b.K.RunUntil(30 * time.Minute)
	b.Facebook.Close()
	b.K.RunUntil(31 * time.Minute) // drain the exchange in flight at Close
	base := len(b.Capture.Records())
	b.K.RunUntil(2 * time.Hour)
	if got := len(b.Capture.Records()); got != base {
		t.Fatalf("refresh continued after Close: %d extra packets", got-base)
	}
}

func TestFacebookTrafficTargetsFacebookServer(t *testing.T) {
	b := newBed(t, facebook.DefaultConfig())
	b.Facebook.PullToUpdate()
	b.K.RunUntil(b.K.Now() + 10*time.Second)
	for _, r := range b.Capture.Records() {
		p, err := r.Packet()
		if err != nil {
			t.Fatal(err)
		}
		if p.Proto != netsim.ProtoTCP {
			continue
		}
		peer := p.Dst.Addr
		if r.Inbound {
			peer = p.Src.Addr
		}
		if peer != serversim.FacebookAddr {
			t.Fatalf("unexpected peer %v in Facebook-only run", peer)
		}
	}
}
