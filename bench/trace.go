package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one wall-clock interval around a harness call into a layer.
type span struct {
	Name string
	// Group is shared by every span of one session, repetition or pipeline
	// tick.
	Group  int64
	Parent int // index of the enclosing span, -1 for a root
	// Lane is the goroutine the span ran on; spans of one lane nest.
	Lane       int
	Start, End time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so traced and untraced runs share one code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, group int64, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Group: group, Parent: parent, Lane: lane, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span and returns its duration.
func (t *tracer) end(h int) time.Duration {
	if t == nil || h < 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[h].End = now
	return now - t.spans[h].Start
}

// selfTimes sums each span name's self time: its duration minus the part
// its children cover. Children run on their parent's goroutine one after
// another, so their durations add up without overlap.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - child[i]
		if self < 0 {
			self = 0
		}
		out[s.Name] += self
	}
	return out
}

// durations returns the durations of every closed span with the name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps) for chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.Group, "span": i, "parent": s.Parent},
		})
	}
	t.mu.Unlock()
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// callbackLayer maps a kernel profiler callback site (a function symbol
// such as "repro/internal/radio.(*entity).receive.func1") to the layer
// whose package defined the callback. Work a callback does inside another
// layer is charged to the callback's own layer.
func callbackLayer(site string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(site, prefix) {
		return "other"
	}
	pkg := site[len(prefix):]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	switch {
	case pkg == "radio", pkg == "netsim", pkg == "uisim":
		return pkg
	case pkg == "apps/serversim":
		return "apps.serversim"
	case strings.HasPrefix(pkg, "apps/"):
		return "apps.client"
	}
	return "other"
}

// uisimParseSite is the profiler site of a completed layout-tree parse.
const uisimParseSite = "repro/internal/uisim.(*Instrumentation).Parse.func1"

// callbackStats accumulates profiler sites across ops.
type callbackStats struct {
	wall   map[string]time.Duration
	count  map[string]uint64
	parses uint64
	total  time.Duration
}

func newCallbackStats() *callbackStats {
	return &callbackStats{wall: map[string]time.Duration{}, count: map[string]uint64{}}
}

func (c *callbackStats) add(p *obs.Profiler) {
	for _, s := range p.Sites() {
		l := callbackLayer(s.Site)
		c.wall[l] += s.Wall
		c.count[l] += s.Count
		c.total += s.Wall
		if s.Site == uisimParseSite {
			c.parses += s.Count
		}
	}
}
