// youtube_throttling reproduces the §7.5 study interactively: what happens
// to video QoE when the carrier throttles an over-quota subscriber, and why
// the throttling *mechanism* matters — 3G shapes (queues) excess traffic
// while LTE polices (drops) it.
//
// The tool plays the same videos under both mechanisms and prints the two
// §7.5 QoE metrics measured purely from UI events, plus the transport-layer
// evidence (TCP retransmissions) behind Finding 7.
package main

import (
	"fmt"
	"time"

	"repro/internal/core/analyzer"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/fleet"
	"repro/internal/radio"
)

const throttleBps = 128e3

func main() {
	fmt.Printf("Carrier throttling at %.0f kbps: 3G shaping vs LTE policing\n\n", throttleBps/1000)
	fmt.Println("network  throttled  video  init loading  rebuffer ratio  TCP retx")
	for _, prof := range []func() *radio.Profile{radio.Profile3G, radio.ProfileLTE} {
		for _, throttled := range []bool{false, true} {
			run(prof(), throttled)
		}
	}
	fmt.Println("\nFinding 6: throttling multiplies initial loading and pushes the")
	fmt.Println("rebuffering ratio from ~0 to over 50%. Finding 7: policing (LTE)")
	fmt.Println("drops packets and forces TCP retransmissions; shaping (3G) does not.")
}

func run(prof *radio.Profile, throttled bool) {
	bed := fleet.MustOneUE(21, prof, fleet.UESpec{DisableQxDM: true})
	bed.YouTube.Connect()
	bed.K.RunUntil(2 * time.Second)
	if throttled {
		bed.Throttle(throttleBps)
	}
	log := &qoe.BehaviorLog{}
	ctl := controller.New(bed.K, bed.YouTube.Screen, log)
	ctl.Timeout = time.Hour
	ctl.Instrumentation().SetPollInterval(150 * time.Millisecond)
	driver := &controller.YouTubeDriver{C: ctl}

	done := false
	var stats controller.WatchStats
	driver.SearchAndPlay("m", 2, func(s controller.WatchStats) { stats, done = s, true })
	bed.K.RunUntil(bed.K.Now() + 45*time.Minute)
	if !done {
		fmt.Printf("%-7s  %-9v  m2     (did not finish)\n", prof.Name, throttled)
		return
	}
	retx := 0
	for _, f := range analyzer.ExtractFlows(bed.Session(log).Packets, fleet.BaseAddr).Flows {
		retx += f.Retransmissions
	}
	fmt.Printf("%-7s  %-9v  m2     %8.1f s    %10.1f %%    %6d\n",
		prof.Name, throttled,
		stats.InitialLoading.RawLatency().Seconds(), 100*stats.RebufferRatio(), retx)
}
