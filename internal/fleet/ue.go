package fleet

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/core/analyzer"
	"repro/internal/core/qoe"

	"repro/internal/apps/browser"
	"repro/internal/apps/facebook"
	"repro/internal/apps/serversim"
	"repro/internal/apps/youtube"
	"repro/internal/core/controller"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pcap"
	"repro/internal/qxdm"
	"repro/internal/radio"
	"repro/internal/simtime"
)

// BaseAddr is the first UE's address on the simulated carrier network;
// UE i gets BaseAddr + i, so a one-UE lab's device is at BaseAddr.
var BaseAddr = netip.MustParseAddr("10.20.0.2")

// UE is one assembled device: its own network stack, bearer (attached to
// the shared cell), server cluster, apps, collectors (pcap on the device's
// IP layer, QxDM on the radio), and observability scope. A one-UE fleet's
// UE is the whole lab the paper's tool runs against: connect an app, drive
// it with the UI controller on K, and hand Session to the analyzer.
type UE struct {
	Index int
	Name  string
	Addr  netip.Addr

	// Shard and HomeCell locate the UE: the shard whose kernel hosts it and
	// the cell it homes on (the same index; both zero in a one-cell fleet).
	// Roamer, when set, drives the UE's mobility and handover state
	// machine.
	Shard    int
	HomeCell int
	Roamer   *radio.Roamer

	K        *simtime.Kernel
	Net      *netsim.Network
	Servers  *serversim.Cluster
	Resolver *netsim.Resolver

	Capture *pcap.Capture
	QxDM    *qxdm.Monitor

	Facebook *facebook.App
	YouTube  *youtube.App
	Browser  *browser.App

	// FaultUL and FaultDL are the installed impairment chains (nil when the
	// spec's fault plan was empty). Throttling composes with them: the
	// chain feeds the throttle qdisc.
	FaultUL *faults.Chain
	FaultDL *faults.Chain

	// Trace, Metrics, and Profiler are the attached observability sinks
	// (nil unless requested). Each UE has its own trace bus and registry so
	// concurrent UEs never share a correlation scope; the profiler is
	// kernel-wide and therefore shared.
	Trace    *obs.Trace
	Metrics  *obs.Registry
	Profiler *obs.Profiler
	// RadioMon is the radio trace monitor (nil unless Trace or Metrics);
	// CloseObs finalizes its open RRC state span.
	RadioMon *radio.TraceMonitor

	// Log is the UE's behavior log; workloads append UI measurements to it.
	Log *qoe.BehaviorLog
	// Watch collects the YouTube workload's playback stats for QoE
	// aggregation (rebuffer ratio).
	Watch []controller.WatchStats

	// Interventions records every remediation the control plane applied to
	// this UE (empty without a controller); RemedyEnergyJ is the energy
	// charged for them, and edgeActive marks the UE as re-homed onto the
	// edge replica cluster.
	Interventions []Intervention
	RemedyEnergyJ float64
	edgeActive    bool

	// workState seeds the UE's deterministic workload variety (which video,
	// which page) independently of the kernel's model randomness.
	workState uint64

	obsClosed bool
}

// coreDelay returns the one-way core latency per technology,
// matching typical measured first-hop-to-server latencies.
func coreDelay(tech radio.Tech) time.Duration {
	switch tech {
	case radio.Tech3G:
		return 35 * time.Millisecond
	case radio.TechLTE:
		return 20 * time.Millisecond
	default:
		return 12 * time.Millisecond
	}
}

// buildUE assembles one UE on its shard's kernel and home cell. The
// construction order is fixed — construction-time event scheduling (outage
// timers) determines kernel tie-breaking, so reordering would silently
// change results. kernelTrace hands the kernel's own spans to the UE's
// trace (the one-UE, one-kernel case).
func buildUE(k *simtime.Kernel, cell *radio.Cell, prof *radio.Profile, index int, addr netip.Addr, spec UESpec, seed int64, o options, kernelTrace bool) *UE {
	net := netsim.NewNetwork(radio.NewBearer(cell, prof, spec.Gain), addr, coreDelay(prof.Tech))
	servers := serversim.Install(net)
	resolver := netsim.NewResolver(net.Device, netsim.Endpoint{Addr: serversim.DNSAddr, Port: netsim.DNSPort})

	ue := &UE{
		Index: index, Name: fmt.Sprintf("ue%d", index), Addr: addr,
		K: k, Net: net, Servers: servers, Resolver: resolver,
		Log:       &qoe.BehaviorLog{},
		workState: uint64(seed)*0x9e3779b97f4a7c15 + uint64(index+1),
	}
	if !spec.Faults.Empty() {
		ue.FaultUL = spec.Faults.Build(k, faults.Uplink, seed)
		ue.FaultDL = spec.Faults.Build(k, faults.Downlink, seed)
		net.ULQdisc = ue.FaultUL
		net.DLQdisc = ue.FaultDL
		for _, out := range spec.Faults.Outages {
			net.Bearer.ScheduleOutage(simtime.Time(out.Start), out.Duration)
		}
	}
	if !spec.DisablePcap {
		ue.Capture = pcap.NewCapture()
		ue.Capture.Attach(net.Device)
	}
	if !spec.DisableQxDM {
		ue.QxDM = qxdm.Attach(net.Bearer)
	}

	fbCfg := spec.Facebook
	if fbCfg == (facebook.Config{}) {
		fbCfg = facebook.DefaultConfig()
	}
	ue.Facebook = facebook.New(k, net.Device, resolver, fbCfg)
	ue.YouTube = youtube.New(k, net.Device, resolver, spec.YouTube)
	brProf := spec.Browser
	if brProf.Name == "" {
		brProf = browser.Chrome()
	}
	ue.Browser = browser.New(k, net.Device, resolver, brProf)

	if o.trace || o.metrics {
		if o.trace {
			ue.Trace = obs.NewTrace()
			if kernelTrace {
				k.SetTrace(ue.Trace)
			} else {
				ue.Trace.Bind(func() time.Duration { return time.Duration(k.Now()) })
			}
		}
		if o.metrics {
			ue.Metrics = obs.NewRegistry()
			ue.Metrics.GaugeFunc("kernel_events", func() float64 { return float64(k.Processed()) })
			ue.Metrics.GaugeFunc("kernel_pending", func() float64 { return float64(k.Pending()) })
			ue.Metrics.GaugeFunc("sim_time_s", func() float64 { return time.Duration(k.Now()).Seconds() })
			ue.Metrics.GaugeFunc("bearer_outages", func() float64 { return float64(net.Bearer.OutageCount()) })
			if ue.FaultUL != nil {
				ue.Metrics.GaugeFunc("fault_drops_ul", func() float64 { return float64(ue.FaultUL.Dropped()) })
			}
			if ue.FaultDL != nil {
				ue.Metrics.GaugeFunc("fault_drops_dl", func() float64 { return float64(ue.FaultDL.Dropped()) })
			}
		}
		net.SetObs(ue.Trace, ue.Metrics)
		net.Bearer.SetTrace(ue.Trace)
		// Fault-chain drops become radio-layer trace instants: the analyzer's
		// attribution pass needs link-layer loss ground truth inside QoE
		// windows to pin loss stalls on the radio layer.
		if ue.FaultUL != nil {
			ue.FaultUL.SetObs(ue.Trace, ue.Metrics, "ul")
		}
		if ue.FaultDL != nil {
			ue.FaultDL.SetObs(ue.Trace, ue.Metrics, "dl")
		}
		ue.RadioMon = radio.AttachTrace(net.Bearer, ue.Trace, ue.Metrics)
		ue.Facebook.SetObs(ue.Trace, ue.Metrics)
		ue.YouTube.SetObs(ue.Trace, ue.Metrics)
		ue.Browser.SetObs(ue.Trace, ue.Metrics)
	}
	if spec.ThrottleBps > 0 {
		ue.Throttle(spec.ThrottleBps)
	}
	return ue
}

// CloseObs finalizes open observability state (the radio monitor's current
// RRC residency span) at the present virtual time. Call it after the run,
// before exporting the trace. Idempotent, and safe when no obs sinks were
// configured.
func (ue *UE) CloseObs() {
	if ue.obsClosed {
		return
	}
	ue.obsClosed = true
	if ue.Roamer != nil {
		ue.Roamer.Close(ue.K.Now())
	}
	if ue.RadioMon != nil {
		ue.RadioMon.Close(ue.K.Now())
	}
}

// ServingCellAt returns the UE's serving cell ID at virtual time t: the
// roamer's history for mobile UEs, the home cell otherwise (0 in a
// one-cell fleet).
func (ue *UE) ServingCellAt(t simtime.Time) int {
	if ue.Roamer != nil {
		return ue.Roamer.ServingAt(t)
	}
	return ue.HomeCell
}

// Session packages the UE's collected logs plus a behavior log into the
// analyzer's input bundle.
func (ue *UE) Session(log *qoe.BehaviorLog) *qoe.Session {
	s := &qoe.Session{
		Profile:    ue.Net.Bearer.Profile(),
		DeviceAddr: ue.Addr,
		Behavior:   log,
	}
	if ue.Capture != nil {
		s.Packets = ue.Capture.Records()
	}
	if ue.QxDM != nil {
		s.Radio = ue.QxDM.Log()
	}
	if ue.Trace != nil {
		s.Trace = ue.Trace.Events()
	}
	return s
}

// Analyze runs the cross-layer analyzer over the UE's collected logs.
func (ue *UE) Analyze(log *qoe.BehaviorLog) *analyzer.CrossLayer {
	return analyzer.NewCrossLayer(ue.Session(log))
}

// AnalyzeAsync starts the analysis on its own goroutine so the caller can
// overlap it with the next run's simulation (the sweep pipeline shape);
// Wait on the returned handle for the result.
func (ue *UE) AnalyzeAsync(log *qoe.BehaviorLog) *analyzer.Pending {
	return analyzer.Analyze(ue.Session(log))
}

// Throttle installs carrier rate limiting on this UE's downlink: traffic
// shaping (the C1 3G mechanism) or traffic policing (the C1 LTE mechanism,
// §7.5). The shaper buffers deeply (carrier-grade queues), so 3G delivers a
// smooth stream at the cap with few TCP drops; the policer has a shallow
// token bucket, so LTE slow-start bursts overshoot and drop, producing the
// retransmissions, bursty goodput, and higher variance of Finding 7.
func (ue *UE) Throttle(rateBps float64) {
	var q netsim.Qdisc
	if ue.Net.Bearer.Profile().Tech == radio.Tech3G {
		// Deeper than the device's TCP receive-window ceiling, so the
		// sender's window fills the queue without overflowing it.
		const queue = 256 * 1024
		s := netsim.NewShaper(ue.K, rateBps, 16*1024, queue)
		s.SetObs(ue.Trace, ue.Metrics, "shape_dl")
		q = s
	} else {
		p := netsim.NewPolicer(ue.K, rateBps, 4*1024)
		p.SetObs(ue.Trace, ue.Metrics, "police_dl")
		q = p
	}
	// Compose with fault injection when present: impairments happen first,
	// then the carrier throttle.
	if ue.FaultDL != nil {
		ue.FaultDL.SetNext(q)
	} else {
		ue.Net.DLQdisc = q
	}
}

// workNext steps the UE's private xorshift state — workload variety (which
// keyword, which result index) that must not perturb the kernel's model
// randomness stream.
func (ue *UE) workNext() uint64 {
	x := ue.workState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	ue.workState = x
	return x
}
