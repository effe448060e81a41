// browser_rrc reproduces the §7.7 design study interactively: how much of a
// web page load is RRC state machine overhead? It loads the same pages with
// idle think time between them under the default 3-state 3G machine, a
// simplified direct-promotion machine, and LTE — and uses the cross-layer
// analyzer to show the promotions that landed inside each QoE window.
package main

import (
	"fmt"
	"time"

	"repro/internal/apps/serversim"
	"repro/internal/core/analyzer"
	"repro/internal/core/controller"
	"repro/internal/core/qoe"
	"repro/internal/fleet"
	"repro/internal/radio"
)

func main() {
	fmt.Println("Web page load time vs RRC state machine design (20 s think time)")
	fmt.Println()
	var baseline float64
	for _, mk := range []func() *radio.Profile{radio.Profile3G, radio.ProfileSimplified3G, radio.ProfileLTE} {
		prof := mk()
		mean, promos := run(prof)
		note := ""
		if prof.Name == "C1-3G" {
			baseline = mean
		} else if baseline > 0 {
			note = fmt.Sprintf("  (%+.1f%% vs default 3G)", 100*(mean/baseline-1))
		}
		fmt.Printf("%-18s  mean load %5.2f s   promotions in QoE windows: %d%s\n",
			prof.Name, mean, promos, note)
	}
	fmt.Println("\n§7.7: removing the FACH intermediate state cuts page loads ~23%,")
	fmt.Println("because every load after an idle gap pays a shorter promotion.")
}

func run(prof *radio.Profile) (meanLoad float64, promotions int) {
	bed := fleet.MustOneUE(5, prof, fleet.UESpec{})
	log := &qoe.BehaviorLog{}
	ctl := controller.New(bed.K, bed.Browser.Screen, log)
	driver := &controller.BrowserDriver{C: ctl}

	urls := make([]string, 8)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/news-%d", serversim.WebHostBase, i)
	}
	var entries []qoe.BehaviorEntry
	driver.LoadPages(urls, 20*time.Second, func(es []qoe.BehaviorEntry) { entries = es })
	bed.K.RunUntil(20 * time.Minute)

	sess := bed.Session(log)
	var sum float64
	n := 0
	for _, e := range entries {
		if !e.Observed {
			continue
		}
		sum += analyzer.Calibrate(e).Calibrated.Seconds()
		n++
		for _, tr := range analyzer.TransitionsIn(sess.Radio, e.Start, e.End) {
			if tr.Promotion {
				promotions++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), promotions
}
