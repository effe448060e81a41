// Package browser models the three web browsing apps of §4.2.3 (Chrome,
// Firefox, and the stock "Internet" browser): a URL bar whose ENTER key
// starts a page load, a progress bar that disappears when the page — HTML
// plus all sub-resources — has loaded, and per-browser differences in
// connection parallelism and parsing speed.
package browser

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"repro/internal/apps/serversim"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/uisim"
)

// View IDs for signature-based control.
const (
	IDURLBar   = "com.android.browser:id/url_bar"
	IDProgress = "com.android.browser:id/load_progress"
	IDPageView = "com.android.browser:id/page_view"
)

// Page-load retry tuning: failed or timed-out loads are retried with capped
// exponential backoff on a fresh connection pool.
const (
	loadRetryBase = time.Second
	loadRetryCap  = 8 * time.Second
	loadRetryMax  = 3 // attempts before giving up
)

// Profile captures per-browser behaviour differences.
type Profile struct {
	Name          string
	ParallelConns int
	ParseBase     time.Duration // HTML parse fixed cost
	ParsePerKB    time.Duration // HTML parse per-KB cost
	RenderDelay   time.Duration // final layout/paint before "loaded"
	// LoadTimeout bounds one page-load attempt. A load that has not
	// finished in time is retried on a fresh connection pool (stale
	// connections are reset), up to loadRetryMax attempts. Zero means wait
	// forever, the pre-fault-injection behaviour.
	LoadTimeout time.Duration
}

// The three browsers studied by the paper.
func Chrome() Profile {
	return Profile{Name: "chrome", ParallelConns: 4, ParseBase: 60 * time.Millisecond, ParsePerKB: 800 * time.Microsecond, RenderDelay: 50 * time.Millisecond}
}
func Firefox() Profile {
	return Profile{Name: "firefox", ParallelConns: 4, ParseBase: 80 * time.Millisecond, ParsePerKB: time.Millisecond, RenderDelay: 60 * time.Millisecond}
}
func Stock() Profile {
	return Profile{Name: "internet", ParallelConns: 2, ParseBase: 110 * time.Millisecond, ParsePerKB: 1300 * time.Microsecond, RenderDelay: 80 * time.Millisecond}
}

// App is the device-side browser model.
type App struct {
	k        *simtime.Kernel
	stack    *netsim.Stack
	resolver *netsim.Resolver
	prof     Profile

	Screen *uisim.Screen

	urlBar   *uisim.View
	progress *uisim.View
	page     *uisim.View

	conns   []*netsim.MsgConn
	pending map[string]*pageLoad // keyed by host (one active load)

	onLoaded func(url string, at simtime.Time)

	loadWatch     simtime.Event // LoadTimeout watchdog for the active load
	loadTries     int
	loadStartedAt simtime.Time // when the current LoadPage was issued
	// LoadFailures counts page loads abandoned after exhausting retries.
	LoadFailures int

	// Observability. loadSpan covers one user-requested page load end to
	// end, including retries.
	tr        *obs.Trace
	pageloads *obs.Counter
	loadFails *obs.Counter
	loadSpan  obs.Span
}

// SetObs attaches a trace bus and metrics registry to the app and its
// screen.
func (a *App) SetObs(tr *obs.Trace, reg *obs.Registry) {
	a.tr = tr
	a.pageloads = reg.Counter("web_pageloads")
	a.loadFails = reg.Counter("web_load_failures")
	a.Screen.SetObs(tr, reg)
}

type pageLoad struct {
	url     string
	spec    serversim.PageSpec
	resLeft int
	nextRes int
	active  bool
	// Visual progress, feeding the Speed Index frame recording.
	htmlParsed bool
	resDone    int
	rendered   bool
}

// completeness estimates the page's visual completeness in [0, 1]: the
// parsed HTML paints the first quarter, each sub-resource a share of the
// rest, and the final render pass completes the frame.
func (l *pageLoad) completeness() float64 {
	if l.rendered {
		return 1
	}
	c := 0.0
	if l.htmlParsed {
		c = 0.25
	}
	if n := len(l.spec.Resources); n > 0 {
		c += 0.65 * float64(l.resDone) / float64(n)
	}
	return c
}

// New builds the browser UI for a profile.
func New(k *simtime.Kernel, stack *netsim.Stack, resolver *netsim.Resolver, prof Profile) *App {
	a := &App{k: k, stack: stack, resolver: resolver, prof: prof, pending: map[string]*pageLoad{}}
	root := uisim.NewView(uisim.ClassView, "com.android.browser:id/root", prof.Name+" root")
	a.Screen = uisim.NewScreen(k, root)

	a.urlBar = uisim.NewView(uisim.ClassEditText, IDURLBar, "url bar")
	a.urlBar.OnEnter = func() { a.LoadPage(a.urlBar.Text()) }
	root.AddChild(a.urlBar)

	a.progress = uisim.NewView(uisim.ClassProgressBar, IDProgress, "page load progress")
	a.progress.SetVisible(false)
	root.AddChild(a.progress)

	a.page = uisim.NewView(uisim.ClassWebView, IDPageView, "page content")
	root.AddChild(a.page)
	return a
}

// OnLoaded registers a page-load completion callback (tests; QoE Doctor
// observes the progress bar instead).
func (a *App) OnLoaded(fn func(url string, at simtime.Time)) { a.onLoaded = fn }

// LoadPage starts loading url ("host/path"). The progress bar shows until
// the HTML and every sub-resource have arrived and rendered. DNS failures
// and load timeouts (Profile.LoadTimeout) are retried with capped
// exponential backoff on a fresh connection pool; after loadRetryMax
// attempts the load is abandoned and the progress bar hidden.
func (a *App) LoadPage(url string) {
	a.loadSpan.End() // defensively close a span from an interrupted load
	a.pageloads.Inc()
	if a.tr != nil {
		id := a.tr.Scope()
		if id == 0 {
			id = a.tr.NewID()
		}
		a.loadSpan = a.tr.Start(obs.LayerApp, "web:pageload", id,
			obs.Attr{Key: "url", Val: url})
	}
	a.loadTries = 0
	a.loadStartedAt = a.k.Now()
	a.startLoad(url)
}

// ActiveLoadAge returns how long the current page load has been running, or
// 0 when no load is active — the stalled-pageload signal runtime
// controllers poll.
func (a *App) ActiveLoadAge(now simtime.Time) time.Duration {
	if a.activeLoad() == nil {
		return 0
	}
	return time.Duration(now - a.loadStartedAt)
}

// Repath restarts the active page load on a fresh connection pool with a
// fresh DNS resolution — after a DNS repoint this lands on the new server.
// The load span stays open across the restart, so QoE accounting charges
// the whole wait to the one user action. Returns false when no load is
// active. The retry budget is reset: the controller's intervention should
// not burn the user-visible retry attempts.
func (a *App) Repath() bool {
	load := a.activeLoad()
	if load == nil {
		return false
	}
	a.cancelLoadWatch()
	load.active = false
	host, _ := splitURL(load.url)
	delete(a.pending, host)
	a.resetConns()
	a.loadTries = 0
	a.startLoad(load.url)
	return true
}

func (a *App) startLoad(url string) {
	a.loadTries++
	host, path := splitURL(url)
	a.progress.SetVisible(true)
	load := &pageLoad{url: url, active: true}
	a.pending[host] = load
	a.resolver.Resolve(host, func(addr netip.Addr, ok bool) {
		if !ok {
			load.active = false
			delete(a.pending, host)
			a.retryOrAbandon(url, host)
			return
		}
		if !load.active {
			return // the load watchdog already gave up on this attempt
		}
		a.ensureConns(addr)
		req, _ := json.Marshal(struct {
			Path string `json:"path"`
		}{path})
		a.conns[0].Send(serversim.WebGetPage, req)
	})
	if a.prof.LoadTimeout > 0 {
		a.loadWatch = a.k.After(a.prof.LoadTimeout, func() {
			a.loadWatch = simtime.Event{}
			if !load.active {
				return
			}
			// Attempt timed out: kill the stale connections (in-flight
			// responses on them must not corrupt the next attempt's
			// bookkeeping) and retry from scratch.
			load.active = false
			delete(a.pending, host)
			a.resetConns()
			a.retryOrAbandon(url, host)
		})
	}
}

// retryOrAbandon schedules the next load attempt, or gives up after
// loadRetryMax tries.
func (a *App) retryOrAbandon(url, host string) {
	a.cancelLoadWatch()
	if a.loadTries < loadRetryMax {
		delay := loadRetryBase << (a.loadTries - 1)
		if delay > loadRetryCap {
			delay = loadRetryCap
		}
		a.k.After(delay, func() { a.startLoad(url) })
		return
	}
	a.LoadFailures++
	a.loadFails.Inc()
	a.loadSpan.Attr("failed", "true")
	a.loadSpan.End()
	a.progress.SetVisible(false)
}

func (a *App) cancelLoadWatch() {
	a.loadWatch.Cancel()
	a.loadWatch = simtime.Event{}
}

// resetConns aborts the connection pool; the next load dials fresh ones.
func (a *App) resetConns() {
	for _, mc := range a.conns {
		mc.Conn.Abort()
	}
	a.conns = nil
}

// ensureConns opens the browser's connection pool to the server on first
// use (kept alive across page loads, like real browsers).
func (a *App) ensureConns(addr netip.Addr) {
	if len(a.conns) > 0 {
		return
	}
	for i := 0; i < a.prof.ParallelConns; i++ {
		c := a.stack.Dial(netsim.Endpoint{Addr: addr, Port: 80})
		mc := netsim.NewMsgConn(c)
		mc.OnMessage(a.onMessage)
		a.conns = append(a.conns, mc)
	}
}

func (a *App) onMessage(kind byte, payload []byte) {
	switch kind {
	case serversim.WebPageData:
		spec, ok := serversim.DecodePageSpec(payload)
		if !ok {
			return
		}
		load := a.activeLoad()
		if load == nil {
			return
		}
		load.spec = spec
		load.resLeft = len(spec.Resources)
		parse := a.prof.ParseBase + time.Duration(spec.HTMLBytes/1024)*a.prof.ParsePerKB
		a.Screen.AddAppCPU(parse)
		a.k.After(parse, func() {
			load.htmlParsed = true
			a.page.SetText("loaded html for " + load.url)
			if load.resLeft == 0 {
				a.finishLoad(load)
				return
			}
			// Kick one fetch per connection; each completion pulls the next.
			n := len(a.conns)
			if n > load.resLeft {
				n = load.resLeft
			}
			for i := 0; i < n; i++ {
				a.fetchNextRes(load, i)
			}
		})
	case serversim.WebResData:
		load := a.activeLoad()
		if load == nil {
			return
		}
		load.resLeft--
		load.resDone++
		// Each arrived resource paints: update the page view so the change
		// reaches the screen (and any Speed Index recorder) as a frame.
		a.page.SetText(fmt.Sprintf("%s: %d resources painted", load.url, load.resDone))
		if load.nextRes < len(load.spec.Resources) {
			a.fetchNextRes(load, load.nextRes%len(a.conns))
		} else if load.resLeft == 0 {
			a.finishLoad(load)
		}
	}
}

func (a *App) fetchNextRes(load *pageLoad, connIdx int) {
	if load.nextRes >= len(load.spec.Resources) {
		return
	}
	idx := load.nextRes
	load.nextRes++
	_, path := splitURL(load.url)
	req, _ := json.Marshal(struct {
		Path  string `json:"path"`
		Index int    `json:"index"`
	}{path, idx})
	a.conns[connIdx%len(a.conns)].Send(serversim.WebGetRes, req)
}

func (a *App) finishLoad(load *pageLoad) {
	load.active = false
	a.cancelLoadWatch()
	a.Screen.AddAppCPU(a.prof.RenderDelay)
	a.k.After(a.prof.RenderDelay, func() {
		load.rendered = true
		a.page.SetText("rendered " + load.url)
		a.loadSpan.End()
		a.progress.SetVisible(false)
		if a.onLoaded != nil {
			a.onLoaded(load.url, a.k.Now())
		}
	})
}

// Completeness reports the visual completeness of what is on screen: 1 when
// no load is active, the active load's paint progress otherwise. It is the
// screen-content signal a Speed Index frame recorder samples.
func (a *App) Completeness() float64 {
	if l := a.activeLoad(); l != nil {
		return l.completeness()
	}
	// A finished load may still be waiting for its final render pass.
	for _, l := range a.pending {
		if !l.active && !l.rendered {
			return l.completeness()
		}
	}
	return 1
}

func (a *App) activeLoad() *pageLoad {
	for _, l := range a.pending {
		if l.active {
			return l
		}
	}
	return nil
}

// splitURL splits "host/path..." into host and "/path...". A bare host gets
// path "/".
func splitURL(url string) (host, path string) {
	url = strings.TrimPrefix(url, "http://")
	url = strings.TrimPrefix(url, "https://")
	if i := strings.IndexByte(url, '/'); i >= 0 {
		return url[:i], url[i:]
	}
	return url, "/"
}
