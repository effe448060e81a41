// Quickstart: measure the user-perceived latency of posting a Facebook
// status, a check-in, and two photos on LTE — the §7.2 workload in ~40
// lines of API use.
//
// The flow is the canonical QoE Doctor loop:
//
//  1. Build the lab, a one-UE fleet (device + radio + servers), and
//     connect the app.
//  2. Drive it with the QoE-aware UI controller (see-interact-wait).
//  3. Feed the collected logs to the multi-layer analyzer.
package main

import (
	"fmt"
	"time"

	"repro/internal/apps/facebook"
	"repro/internal/core/analyzer"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/fleet"
	"repro/internal/radio"
)

func main() {
	// 1. The lab: an LTE device with tcpdump and QxDM attached.
	bed := fleet.MustOneUE(7, radio.ProfileLTE(), fleet.UESpec{})
	bed.Facebook.Connect()
	bed.K.RunUntil(3 * time.Second)

	// 2. Replay one post of each kind via the UI controller.
	log := &qoe.BehaviorLog{}
	ctl := controller.New(bed.K, bed.Facebook.Screen, log)
	driver := controller.NewFacebookDriver(ctl, false)

	kinds := []string{facebook.PostStatus, facebook.PostCheckin, facebook.PostPhotos}
	var next func(i int)
	next = func(i int) {
		if i >= len(kinds) {
			return
		}
		driver.UploadPost(kinds[i], i, func(qoe.BehaviorEntry) {
			bed.K.After(2*time.Second, func() { next(i + 1) })
		})
	}
	next(0)
	bed.K.RunUntil(bed.K.Now() + 5*time.Minute)

	// 3. Analyze: calibrated latency plus the device/network split.
	app := analyzer.AnalyzeApp(log)
	cross := analyzer.NewCrossLayer(bed.Session(log))
	fmt.Println("action                latency   device    network   (network on critical path?)")
	for _, l := range app.Latencies {
		split := cross.SplitDeviceNetwork(l)
		onPath := "no — local echo"
		if split.Network > split.Device {
			onPath = "yes — upload dominates"
		}
		fmt.Printf("%-20s  %6.2fs   %6.2fs   %6.2fs   %s\n",
			l.Entry.Action, l.Calibrated.Seconds(),
			split.Device.Seconds(), split.Network.Seconds(), onPath)
	}
	fmt.Printf("\nIP-to-RLC mapping: uplink %.1f%%, downlink %.1f%%\n",
		100*cross.ULMap.Ratio(), 100*cross.DLMap.Ratio())
}
