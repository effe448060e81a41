package analyzer

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core/qoe"
	"repro/internal/qxdm"
	"repro/internal/simtime"
)

// qxdmTruncationSlack is how far the packet capture must outlive the last
// radio record before the QxDM log is flagged as truncated. It absorbs the
// normal tail (a final burst's PDUs precede the last ACKs) without hiding a
// real mid-run logging gap.
const qxdmTruncationSlack = 2 * time.Second

// CrossLayer binds one session's layers together: flows from the capture,
// PDU streams from the QxDM log, and the IP-to-RLC mappings.
type CrossLayer struct {
	Session *qoe.Session
	Flows   *FlowReport

	ULPDUs []qxdm.PDURecord // deduplicated, first transmissions only
	DLPDUs []qxdm.PDURecord
	ULMap  MappingResult
	DLMap  MappingResult

	// Warnings lists non-fatal data-quality problems found while binding
	// the layers — absent or truncated logs, capture loss. A warning means
	// the analysis is partial, not wrong: affected breakdown components
	// degrade to coarser buckets instead of failing.
	Warnings []string

	ulPackets []MappedPacket
	dlPackets []MappedPacket
}

func (c *CrossLayer) warn(format string, args ...any) {
	c.Warnings = append(c.Warnings, fmt.Sprintf(format, args...))
}

// radioCoverageWarnings flags a QxDM log that is empty, lossy, or ends well
// before the packet capture does (QxDM killed or disabled mid-run). It is a
// pure function of the session so the parallel engine can run it as an
// independent stage.
func radioCoverageWarnings(sess *qoe.Session) []string {
	log := sess.Radio
	var warns []string
	warn := func(format string, args ...any) {
		warns = append(warns, fmt.Sprintf(format, args...))
	}
	if miss := log.Missed[0] + log.Missed[1]; miss > 0 {
		warn("QxDM capture loss: %d PDUs missing from the radio log; RLC-layer components are underestimates", miss)
	}
	var lastRadio simtime.Time = -1
	for _, tr := range log.Transitions {
		if tr.At > lastRadio {
			lastRadio = tr.At
		}
	}
	for _, p := range log.PDUs {
		if p.At > lastRadio {
			lastRadio = p.At
		}
	}
	for _, st := range log.Statuses {
		if st.At > lastRadio {
			lastRadio = st.At
		}
	}
	if len(sess.Packets) == 0 {
		return warns
	}
	if lastRadio < 0 {
		warn("QxDM log contains no radio records; radio-layer breakdowns unavailable")
		return warns
	}
	cutoff := lastRadio + simtime.Time(qxdmTruncationSlack)
	after := 0
	for i := range sess.Packets {
		if sess.Packets[i].At > cutoff {
			after++
		}
	}
	if after > 0 {
		warn("QxDM log appears truncated: last radio record at %v but %d captured packets follow (logging stopped mid-run?); later radio breakdowns fall back to \"other\"",
			time.Duration(lastRadio), after)
	}
	return warns
}

// QoEWindow is the interval of a user-perceived latency problem (§5.4.1).
type QoEWindow struct {
	From, To simtime.Time
}

// WindowOf derives the QoE window from a behavior entry.
func WindowOf(e qoe.BehaviorEntry) QoEWindow { return QoEWindow{From: e.Start, To: e.End} }

// ResponsibleFlow finds the TCP flow carrying the most traffic inside the
// window — the paper's flow-identification heuristic ("in most cases only
// one flow has traffic during the QoE window").
func (c *CrossLayer) ResponsibleFlow(w QoEWindow) *Flow {
	var best *Flow
	bestBytes := -1
	for _, f := range c.Flows.Flows {
		bytes := f.WindowBytes(w.From, w.To)
		if bytes > bestBytes && bytes > 0 {
			best, bestBytes = f, bytes
		}
	}
	return best
}

// DeviceNetworkSplit implements the §7.2 breakdown: network latency is the
// span between the responsible flow's first and last packet inside the QoE
// window; device latency is the remainder of the user-perceived latency.
// When no flow has traffic in the window, the whole latency is device time
// (the Finding-1 signature: the network is off the critical path).
type DeviceNetworkSplit struct {
	UserPerceived time.Duration
	Network       time.Duration
	Device        time.Duration
	Flow          *Flow // nil when no flow had traffic in the window
}

// SplitDeviceNetwork computes the split for one calibrated measurement.
func (c *CrossLayer) SplitDeviceNetwork(l Latency) DeviceNetworkSplit {
	w := WindowOf(l.Entry)
	s := DeviceNetworkSplit{UserPerceived: l.Calibrated}
	f := c.ResponsibleFlow(w)
	if f == nil {
		s.Device = l.Calibrated
		return s
	}
	first, last, n := f.WindowSpan(w.From, w.To)
	if n < 2 {
		s.Device = l.Calibrated
		return s
	}
	s.Flow = f
	s.Network = time.Duration(last - first)
	if s.Network > s.UserPerceived {
		s.Network = s.UserPerceived
	}
	s.Device = s.UserPerceived - s.Network
	return s
}

// NetworkBreakdown is the Fig. 8/9 fine-grained decomposition of network
// latency inside a QoE window.
type NetworkBreakdown struct {
	Total           time.Duration
	IPToRLC         time.Duration
	RLCTransmission time.Duration
	FirstHopOTA     time.Duration
	Other           time.Duration
	PDUCount        int // data PDUs (incl. retransmissions) in the window
	Bursts          int
}

// BreakdownWindow decomposes the interval [from, to]:
//
//   - RLC transmission delay: the sum of inter-PDU gaps within each RLC
//     burst, where a burst groups PDUs whose spacing is below the estimated
//     first-hop OTA RTT (§7.2's burst analysis).
//   - First-hop OTA delay: STATUS waits the device explicitly blocks on
//     (no data PDU between the polling PDU and its STATUS).
//   - IP-to-RLC delay: for mapped packets whose first PDU starts a burst,
//     the gap between the IP timestamp and that first PDU.
//   - Other: the remainder (core network, server processing, TCP dynamics).
func (c *CrossLayer) BreakdownWindow(from, to simtime.Time) NetworkBreakdown {
	bd := NetworkBreakdown{Total: time.Duration(to - from)}
	if c.Session.Radio == nil || bd.Total <= 0 {
		bd.Other = bd.Total
		return bd
	}
	rtt := MedianOTARTT(c.Session.Radio)
	if rtt <= 0 {
		rtt = c.Session.Profile.OTARTT
	}

	// All data PDU transmissions in the window (retransmissions included:
	// they occupy the channel too).
	var times []simtime.Time
	for _, p := range c.Session.Radio.PDUs {
		if p.At >= from && p.At <= to {
			times = append(times, p.At)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	bd.PDUCount = len(times)

	// Burst analysis.
	burstHeads := make(map[simtime.Time]bool)
	for i, t := range times {
		if i == 0 || time.Duration(t-times[i-1]) >= rtt {
			bd.Bursts++
			burstHeads[t] = true
		} else {
			bd.RLCTransmission += time.Duration(t - times[i-1])
		}
	}

	// Explicit STATUS waits.
	for _, st := range c.Session.Radio.Statuses {
		if st.At < from || st.At > to {
			continue
		}
		// Last polled data PDU before this status.
		var pollAt simtime.Time = -1
		var anyAfterPoll bool
		for _, p := range c.Session.Radio.PDUs {
			if p.At > st.At || p.At < from {
				continue
			}
			if p.Dir == st.Dir && p.Poll {
				pollAt = p.At
				anyAfterPoll = false
			} else if pollAt >= 0 && p.At > pollAt {
				anyAfterPoll = true
			}
		}
		if pollAt >= 0 && !anyAfterPoll {
			bd.FirstHopOTA += time.Duration(st.At - pollAt)
		}
	}

	// IP-to-RLC: burst-starting mapped packets.
	bd.IPToRLC += c.ipToRLC(c.ulPackets, c.ULMap, c.ULPDUs, burstHeads, from, to)
	bd.IPToRLC += c.ipToRLC(c.dlPackets, c.DLMap, c.DLPDUs, burstHeads, from, to)

	used := bd.IPToRLC + bd.RLCTransmission + bd.FirstHopOTA
	if used < bd.Total {
		bd.Other = bd.Total - used
	}
	return bd
}

func (c *CrossLayer) ipToRLC(packets []MappedPacket, m MappingResult, pdus []qxdm.PDURecord, burstHeads map[simtime.Time]bool, from, to simtime.Time) time.Duration {
	var sum time.Duration
	for i, pkt := range packets {
		if pkt.At < from || pkt.At > to || i >= len(m.Packets) || !m.Packets[i].Mapped {
			continue
		}
		first := pdus[m.Packets[i].FirstPDU]
		if !burstHeads[first.At] {
			continue
		}
		if d := time.Duration(first.At - pkt.At); d > 0 {
			sum += d
		}
	}
	return sum
}

// DataConsumption sums device wire bytes over the capture, optionally
// restricted to flows resolved to host (empty host = everything).
func (c *CrossLayer) DataConsumption(host string) (ul, dl int) {
	if host == "" {
		return c.Flows.TotalUL, c.Flows.TotalDL
	}
	return c.Flows.HostBytes(host)
}
