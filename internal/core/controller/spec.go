package controller

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core/qoe"
)

// The paper's controller replays behaviour from hand-written "control
// specifications" (§4.1): a declarative list of interactions that anyone
// familiar with Android View classes can author. This file implements that
// input format as JSON, compiled onto the app drivers.
//
// Example:
//
//	{
//	  "preserve_timing": true,
//	  "steps": [
//	    {"app": "facebook", "action": "upload_post", "kind": "status", "repeat": 3, "delay_ms": 2000},
//	    {"app": "facebook", "action": "pull_to_update"},
//	    {"app": "browser",  "action": "load_page", "url": "www.example.com/news"},
//	    {"app": "youtube",  "action": "watch_video", "keyword": "a", "index": 1}
//	  ]
//	}

// SpecStep is one declarative interaction.
type SpecStep struct {
	App    string `json:"app"`    // facebook | youtube | browser
	Action string `json:"action"` // see Compile for the per-app verbs

	// Action parameters.
	Kind    string `json:"kind,omitempty"`    // facebook post kind
	URL     string `json:"url,omitempty"`     // browser page
	Keyword string `json:"keyword,omitempty"` // youtube search keyword
	Index   int    `json:"index,omitempty"`   // youtube result index

	// DelayMS is think time before the step (used when the spec preserves
	// timing), at most maxDelayMS. Repeat expands the step N times
	// (default 1), at most maxRepeat.
	DelayMS int64 `json:"delay_ms,omitempty"`
	Repeat  int   `json:"repeat,omitempty"`
}

// Bounds ParseSpec enforces on each step. Compile expands a step into
// Repeat script steps, so an unbounded count is unbounded memory; at most
// 1000 repetitions also keeps every expansion's stamp sequence
// (step*1000 + repetition) distinct. Think time is capped at a day, far
// below the values that overflow the virtual clock when added to it.
const (
	maxRepeat  = 1000
	maxDelayMS = 24 * 60 * 60 * 1000
)

// Spec is a full replay specification.
type Spec struct {
	PreserveTiming bool       `json:"preserve_timing"`
	Steps          []SpecStep `json:"steps"`
}

// ParseSpec reads a JSON control specification.
func ParseSpec(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("controller: parsing spec: %w", err)
	}
	if len(s.Steps) == 0 {
		return nil, fmt.Errorf("controller: spec has no steps")
	}
	for i, st := range s.Steps {
		if st.Repeat < 0 || st.Repeat > maxRepeat {
			return nil, fmt.Errorf("controller: spec step %d: repeat %d outside [0, %d]", i, st.Repeat, maxRepeat)
		}
		if st.DelayMS < 0 || st.DelayMS > maxDelayMS {
			return nil, fmt.Errorf("controller: spec step %d: delay_ms %d outside [0, %d]", i, st.DelayMS, maxDelayMS)
		}
	}
	return &s, nil
}

// Drivers bundles the app drivers a spec can address. Nil drivers make the
// corresponding app unavailable.
type Drivers struct {
	Facebook *FacebookDriver
	YouTube  *YouTubeDriver
	Browser  *BrowserDriver
}

// Compile lowers the spec onto a Script. Every step is validated up front,
// so replay never fails midway on a typo.
func (s *Spec) Compile(d Drivers) (*Script, error) {
	script := &Script{PreserveTiming: s.PreserveTiming}
	for i, st := range s.Steps {
		run, err := compileStep(d, st)
		if err != nil {
			return nil, fmt.Errorf("controller: spec step %d: %w", i, err)
		}
		repeat := st.Repeat
		if repeat <= 0 {
			repeat = 1
		}
		for r := 0; r < repeat; r++ {
			seq := i*1000 + r // distinct stamp sequence per expansion
			script.Steps = append(script.Steps, Step{
				Delay: time.Duration(st.DelayMS) * time.Millisecond,
				Run:   run(seq),
			})
		}
	}
	return script, nil
}

// compileStep returns a factory producing the step's Run function for a
// given repetition sequence number.
func compileStep(d Drivers, st SpecStep) (func(seq int) func(next func()), error) {
	switch st.App {
	case "facebook":
		if d.Facebook == nil {
			return nil, fmt.Errorf("no facebook driver")
		}
		switch st.Action {
		case "upload_post":
			kind := st.Kind
			if kind == "" {
				kind = "status"
			}
			return func(seq int) func(next func()) {
				return func(next func()) {
					if _, err := d.Facebook.UploadPost(kind, seq, func(qoe.BehaviorEntry) { next() }); err != nil {
						next()
					}
				}
			}, nil
		case "pull_to_update":
			return func(int) func(next func()) {
				return func(next func()) {
					if err := d.Facebook.PullToUpdate(func(qoe.BehaviorEntry) { next() }); err != nil {
						next()
					}
				}
			}, nil
		case "wait_self_update":
			return func(int) func(next func()) {
				return func(next func()) {
					d.Facebook.WaitSelfUpdate(func(qoe.BehaviorEntry) { next() })
				}
			}, nil
		}
		return nil, fmt.Errorf("unknown facebook action %q", st.Action)
	case "youtube":
		if d.YouTube == nil {
			return nil, fmt.Errorf("no youtube driver")
		}
		if st.Action != "watch_video" {
			return nil, fmt.Errorf("unknown youtube action %q", st.Action)
		}
		if st.Keyword == "" {
			return nil, fmt.Errorf("watch_video needs a keyword")
		}
		return func(int) func(next func()) {
			return func(next func()) {
				if err := d.YouTube.SearchAndPlay(st.Keyword, st.Index, func(WatchStats) { next() }); err != nil {
					next()
				}
			}
		}, nil
	case "browser":
		if d.Browser == nil {
			return nil, fmt.Errorf("no browser driver")
		}
		if st.Action != "load_page" {
			return nil, fmt.Errorf("unknown browser action %q", st.Action)
		}
		if st.URL == "" {
			return nil, fmt.Errorf("load_page needs a url")
		}
		return func(int) func(next func()) {
			return func(next func()) {
				if err := d.Browser.LoadPage(st.URL, func(qoe.BehaviorEntry) { next() }); err != nil {
					next()
				}
			}
		}, nil
	}
	return nil, fmt.Errorf("unknown app %q", st.App)
}
