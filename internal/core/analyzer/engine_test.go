package analyzer_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/apps/facebook"
	"repro/internal/apps/serversim"
	"repro/internal/core/analyzer"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/radio"
	"repro/internal/testbed"
)

// uploadSession simulates photo uploads on the given bearer and returns the
// collected session — a QxDM-heavy, uplink-dominated analyzer input.
func uploadSession(seed int64, profile *radio.Profile, posts int, trace bool) *qoe.Session {
	b := testbed.MustNew(testbed.Options{Seed: seed, Profile: profile, Trace: trace})
	b.Facebook.Connect()
	b.K.RunUntil(3 * time.Second)
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.Facebook.Screen, log)
	d := controller.NewFacebookDriver(c, false)
	var run func(i int)
	run = func(i int) {
		if i >= posts {
			return
		}
		d.UploadPost(facebook.PostPhotos, i, func(qoe.BehaviorEntry) {
			b.K.After(time.Second, func() { run(i + 1) })
		})
	}
	run(0)
	b.K.RunUntil(b.K.Now() + 5*time.Minute)
	b.CloseObs()
	return b.Session(log)
}

// browseSession simulates page loads — downlink-dominated, with DNS and
// multiple flows.
func browseSession(seed int64, profile *radio.Profile, pages int, trace bool) *qoe.Session {
	b := testbed.MustNew(testbed.Options{Seed: seed, Profile: profile, Trace: trace})
	log := &qoe.BehaviorLog{}
	c := controller.New(b.K, b.Browser.Screen, log)
	d := &controller.BrowserDriver{C: c}
	urls := make([]string, pages)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/eng-%d", serversim.WebHostBase, i)
	}
	d.LoadPages(urls, 2*time.Second, nil)
	b.K.RunUntil(5 * time.Minute)
	b.CloseObs()
	return b.Session(log)
}

// NewCrossLayer must produce a CrossLayer deeply equal to the serial seed
// oracle — flows, PDU slices, both mappings, and Warnings in the same
// order — on realistic sessions covering both bearers, both traffic
// directions, and the trace cross-check stage.
func TestParallelEngineMatchesSerial(t *testing.T) {
	sessions := map[string]*qoe.Session{
		"3g-upload":     uploadSession(11, radio.Profile3G(), 2, false),
		"3g-browse":     browseSession(12, radio.Profile3G(), 4, false),
		"lte-upload-tr": uploadSession(13, radio.ProfileLTE(), 1, true),
		"lte-browse-tr": browseSession(14, radio.ProfileLTE(), 3, true),
	}
	for name, sess := range sessions {
		t.Run(name, func(t *testing.T) {
			want := analyzer.NewCrossLayerSerialForTest(sess)
			got := analyzer.NewCrossLayer(sess)
			if !reflect.DeepEqual(got.Flows, want.Flows) {
				t.Errorf("Flows diverge")
			}
			if !reflect.DeepEqual(got.ULPDUs, want.ULPDUs) || !reflect.DeepEqual(got.DLPDUs, want.DLPDUs) {
				t.Errorf("PDU streams diverge")
			}
			if !reflect.DeepEqual(got.ULMap, want.ULMap) {
				t.Errorf("ULMap diverges: got %d/%d want %d/%d",
					got.ULMap.Mapped, got.ULMap.Total, want.ULMap.Mapped, want.ULMap.Total)
			}
			if !reflect.DeepEqual(got.DLMap, want.DLMap) {
				t.Errorf("DLMap diverges: got %d/%d want %d/%d",
					got.DLMap.Mapped, got.DLMap.Total, want.DLMap.Mapped, want.DLMap.Total)
			}
			if !reflect.DeepEqual(got.Warnings, want.Warnings) {
				t.Errorf("Warnings diverge:\n got %q\nwant %q", got.Warnings, want.Warnings)
			}
		})
	}
}

// Degenerate inputs must warn exactly as the serial seed oracle does.
func TestEngineDegenerateSessions(t *testing.T) {
	empty := &qoe.Session{Profile: radio.ProfileLTE(), DeviceAddr: testbed.DeviceAddr}
	noRadio := browseSession(15, radio.ProfileLTE(), 1, false)
	noRadio.Radio = nil
	for name, sess := range map[string]*qoe.Session{"empty": empty, "no-radio": noRadio} {
		want := analyzer.NewCrossLayerSerialForTest(sess)
		got := analyzer.NewCrossLayer(sess)
		if !reflect.DeepEqual(got.Warnings, want.Warnings) {
			t.Errorf("%s: warnings diverge:\n got %q\nwant %q", name, got.Warnings, want.Warnings)
		}
	}
}

// Analyze/Wait returns the same analysis as the synchronous call.
func TestAnalyzeAsync(t *testing.T) {
	sess := browseSession(16, radio.Profile3G(), 2, false)
	p := analyzer.Analyze(sess)
	got := p.Wait()
	if got2 := p.Wait(); got2 != got {
		t.Fatal("Wait not idempotent")
	}
	want := analyzer.NewCrossLayer(sess)
	if !reflect.DeepEqual(got.ULMap, want.ULMap) || !reflect.DeepEqual(got.DLMap, want.DLMap) {
		t.Fatal("async analysis diverges from synchronous")
	}
}
