package controller_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/apps/serversim"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/fleet"
)

func TestParseSpecValidAndInvalid(t *testing.T) {
	good := `{"preserve_timing": true, "steps": [
		{"app": "facebook", "action": "upload_post", "kind": "status", "repeat": 2, "delay_ms": 1000},
		{"app": "browser", "action": "load_page", "url": "www.example.com/x"}
	]}`
	s, err := controller.ParseSpec(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if !s.PreserveTiming || len(s.Steps) != 2 || s.Steps[0].Repeat != 2 {
		t.Fatalf("parsed spec wrong: %+v", s)
	}
	for _, bad := range []string{
		``,
		`{}`,
		`{"steps": []}`,
		`{"steps": [{"app": "x"}], "bogus_field": 1}`,
		`{"steps": [{"app": "facebook", "action": "pull_to_update", "repeat": -1}]}`,
		`{"steps": [{"app": "facebook", "action": "pull_to_update", "repeat": 1001}]}`,
		`{"steps": [{"app": "facebook", "action": "pull_to_update", "delay_ms": -1}]}`,
		`{"steps": [{"app": "facebook", "action": "pull_to_update", "delay_ms": 86400001}]}`,
	} {
		if _, err := controller.ParseSpec(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted bad spec %q", bad)
		}
	}
}

func TestCompileValidation(t *testing.T) {
	compile := func(step controller.SpecStep, d controller.Drivers) error {
		spec := &controller.Spec{Steps: []controller.SpecStep{step}}
		_, err := spec.Compile(d)
		return err
	}
	full := controller.Drivers{
		Facebook: &controller.FacebookDriver{},
		YouTube:  &controller.YouTubeDriver{},
		Browser:  &controller.BrowserDriver{},
	}
	cases := []struct {
		step controller.SpecStep
		d    controller.Drivers
	}{
		{controller.SpecStep{App: "nope", Action: "x"}, full},
		{controller.SpecStep{App: "facebook", Action: "nope"}, full},
		{controller.SpecStep{App: "facebook", Action: "upload_post"}, controller.Drivers{}},
		{controller.SpecStep{App: "youtube", Action: "watch_video"}, full}, // missing keyword
		{controller.SpecStep{App: "browser", Action: "load_page"}, full},   // missing url
	}
	for i, c := range cases {
		if err := compile(c.step, c.d); err == nil {
			t.Errorf("case %d: compile accepted invalid step %+v", i, c.step)
		}
	}
}

func TestSpecEndToEndReplay(t *testing.T) {
	b := fleet.MustOneUE(44, nil, fleet.UESpec{DisableQxDM: true})
	b.Facebook.Connect()
	b.K.RunUntil(2 * time.Second)
	log := &qoe.BehaviorLog{}
	fbCtl := controller.New(b.K, b.Facebook.Screen, log)
	brCtl := controller.New(b.K, b.Browser.Screen, log)
	drivers := controller.Drivers{
		Facebook: controller.NewFacebookDriver(fbCtl, false),
		Browser:  &controller.BrowserDriver{C: brCtl},
	}
	spec, err := controller.ParseSpec(strings.NewReader(`{
		"preserve_timing": true,
		"steps": [
			{"app": "facebook", "action": "upload_post", "kind": "status", "repeat": 2, "delay_ms": 2000},
			{"app": "facebook", "action": "pull_to_update", "delay_ms": 1000},
			{"app": "browser", "action": "load_page", "url": "` + serversim.WebHostBase + `/spec"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	script, err := spec.Compile(drivers)
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Steps) != 4 { // upload x2 + update + page
		t.Fatalf("compiled %d steps, want 4", len(script.Steps))
	}
	done := false
	script.Play(b.K, func() { done = true })
	b.K.RunUntil(10 * time.Minute)
	if !done {
		t.Fatal("script did not finish")
	}
	if got := len(log.ByAction("upload_post_status")); got != 2 {
		t.Fatalf("uploads measured = %d", got)
	}
	if got := len(log.ByAction("pull_to_update")); got != 1 {
		t.Fatalf("updates measured = %d", got)
	}
	if got := len(log.ByAction("load_page")); got != 1 {
		t.Fatalf("page loads measured = %d", got)
	}
	for _, e := range log.Entries {
		if !e.Observed {
			t.Fatalf("unobserved entry: %+v", e)
		}
	}
	// Upload stamps must be distinct across repeats.
	ups := log.ByAction("upload_post_status")
	if ups[0].Note == ups[1].Note {
		t.Fatal("repeated steps share a stamp")
	}
}
