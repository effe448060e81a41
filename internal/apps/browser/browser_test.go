package browser_test

import (
	"testing"
	"time"

	"repro/internal/apps/browser"
	"repro/internal/apps/serversim"
	"repro/internal/fleet"
	"repro/internal/radio"
	"repro/internal/simtime"
	"repro/internal/uisim"
)

func newBed(t *testing.T, seed int64, prof *radio.Profile, bp browser.Profile) *fleet.UE {
	t.Helper()
	return fleet.MustOneUE(seed, prof, fleet.UESpec{Browser: bp, DisableQxDM: true})
}

// loadPage drives a page load via the URL bar and returns the load time.
func loadPage(t *testing.T, b *fleet.UE, url string, budget time.Duration) time.Duration {
	t.Helper()
	in := uisim.NewInstrumentation(b.K, b.Browser.Screen)
	if _, err := in.EnterText(uisim.Signature{ID: browser.IDURLBar}, url); err != nil {
		t.Fatal(err)
	}
	var doneAt simtime.Time = -1
	done := false
	b.Browser.OnLoaded(func(u string, at simtime.Time) { doneAt, done = at, true })
	start, err := in.PressEnter(uisim.Signature{ID: browser.IDURLBar})
	if err != nil {
		t.Fatal(err)
	}
	b.K.RunUntil(b.K.Now() + budget)
	if !done {
		t.Fatalf("page %q did not load within %v", url, budget)
	}
	return time.Duration(doneAt - start)
}

func TestPageLoadCompletes(t *testing.T) {
	b := newBed(t, 1, nil, browser.Chrome())
	d := loadPage(t, b, serversim.WebHostBase+"/index.html", 2*time.Minute)
	if d <= 0 || d > 30*time.Second {
		t.Fatalf("page load time = %v", d)
	}
	// All page bytes actually crossed the wire.
	spec := b.Servers.Web.Page("/index.html")
	var in int
	for _, r := range b.Capture.Records() {
		if r.Inbound {
			in += len(r.Data)
		}
	}
	if in < spec.TotalBytes() {
		t.Fatalf("downlink bytes %d < page total %d", in, spec.TotalBytes())
	}
}

func TestProgressBarCycle(t *testing.T) {
	b := newBed(t, 2, nil, browser.Chrome())
	var shownAt, hiddenAt simtime.Time = -1, -1
	b.Browser.Screen.WatchScreen(func(r *uisim.View) bool {
		v := r.Find(uisim.Signature{ID: browser.IDProgress})
		return v != nil && v.Shown()
	}, func(at simtime.Time) { shownAt = at })
	in := uisim.NewInstrumentation(b.K, b.Browser.Screen)
	in.EnterText(uisim.Signature{ID: browser.IDURLBar}, serversim.WebHostBase+"/a")
	in.PressEnter(uisim.Signature{ID: browser.IDURLBar})
	b.K.RunUntil(500 * time.Millisecond)
	b.Browser.Screen.WatchScreen(func(r *uisim.View) bool {
		v := r.Find(uisim.Signature{ID: browser.IDProgress})
		return v != nil && !v.Shown()
	}, func(at simtime.Time) { hiddenAt = at })
	b.K.RunUntil(2 * time.Minute)
	if shownAt < 0 || hiddenAt <= shownAt {
		t.Fatalf("progress bar cycle wrong: shown=%v hidden=%v", shownAt, hiddenAt)
	}
}

func TestPageSpecDeterministic(t *testing.T) {
	b := newBed(t, 3, nil, browser.Chrome())
	p1 := b.Servers.Web.Page("/same")
	p2 := b.Servers.Web.Page("/same")
	if p1.HTMLBytes != p2.HTMLBytes || len(p1.Resources) != len(p2.Resources) {
		t.Fatal("page spec not deterministic")
	}
	q := b.Servers.Web.Page("/other")
	if p1.HTMLBytes == q.HTMLBytes && p1.TotalBytes() == q.TotalBytes() {
		t.Fatal("distinct paths produced identical specs (suspicious)")
	}
	if p1.HTMLBytes < 25_000 || p1.HTMLBytes > 60_000 || len(p1.Resources) < 4 {
		t.Fatalf("spec out of documented range: %+v", p1)
	}
}

func TestStockBrowserSlowerThanChrome(t *testing.T) {
	chrome := loadPage(t, newBed(t, 4, nil, browser.Chrome()), serversim.WebHostBase+"/bench", 2*time.Minute)
	stock := loadPage(t, newBed(t, 4, nil, browser.Stock()), serversim.WebHostBase+"/bench", 2*time.Minute)
	if stock <= chrome {
		t.Fatalf("stock browser (%v) not slower than chrome (%v)", stock, chrome)
	}
}

func TestSimplified3GFasterPageLoads(t *testing.T) {
	// Load pages with 20s think time between them: the default 3G machine
	// demotes to FACH and pays extra promotions (§7.7).
	run := func(prof *radio.Profile) time.Duration {
		b := newBed(t, 5, prof, browser.Chrome())
		var total time.Duration
		for i, p := range []string{"/p1", "/p2", "/p3"} {
			_ = i
			total += loadPage(t, b, serversim.WebHostBase+p, 5*time.Minute)
			b.K.RunUntil(b.K.Now() + 20*time.Second)
		}
		return total
	}
	def := run(radio.Profile3G())
	simp := run(radio.ProfileSimplified3G())
	if simp >= def {
		t.Fatalf("simplified 3G (%v) not faster than default (%v)", simp, def)
	}
}

func TestURLSplit(t *testing.T) {
	// Exercised indirectly; a bare-host load must still work.
	b := newBed(t, 6, nil, browser.Firefox())
	d := loadPage(t, b, "http://"+serversim.WebHostBase, 2*time.Minute)
	if d <= 0 {
		t.Fatalf("bare-host load time = %v", d)
	}
}

func TestUnknownHostAbortsLoad(t *testing.T) {
	b := newBed(t, 7, nil, browser.Chrome())
	in := uisim.NewInstrumentation(b.K, b.Browser.Screen)
	in.EnterText(uisim.Signature{ID: browser.IDURLBar}, "nonexistent.example/x")
	in.PressEnter(uisim.Signature{ID: browser.IDURLBar})
	b.K.RunUntil(time.Minute)
	bar := b.Browser.Screen.Root().Find(uisim.Signature{ID: browser.IDProgress})
	if bar.Shown() {
		t.Fatal("progress bar stuck after DNS failure")
	}
}
