package controller_test

import (
	"bytes"
	"testing"

	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/fleet"
)

// FuzzParseSpec feeds arbitrary bytes to ParseSpec and compiles every spec
// it accepts against real app drivers, as qoedoctor -spec does. A bad spec
// must come back as an error, never as a panic or an unbounded expansion.
func FuzzParseSpec(f *testing.F) {
	ue := fleet.MustOneUE(1, nil, fleet.UESpec{DisableQxDM: true, DisablePcap: true})
	log := &qoe.BehaviorLog{}
	drivers := controller.Drivers{
		Facebook: controller.NewFacebookDriver(controller.New(ue.K, ue.Facebook.Screen, log), false),
		YouTube:  &controller.YouTubeDriver{C: controller.New(ue.K, ue.YouTube.Screen, log), SkipAds: true},
		Browser:  &controller.BrowserDriver{C: controller.New(ue.K, ue.Browser.Screen, log)},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := controller.ParseSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		script, err := spec.Compile(drivers)
		if err != nil {
			return
		}
		want := 0
		for _, st := range spec.Steps {
			want += max(st.Repeat, 1)
		}
		if len(script.Steps) != want {
			t.Fatalf("compiled %d steps, want %d", len(script.Steps), want)
		}
	})
}
