package analyzer

import (
	"sync"

	"repro/internal/core/qoe"
	"repro/internal/qxdm"
	"repro/internal/radio"
)

// NewCrossLayer runs flow extraction and both long-jump mappings. Missing or
// truncated inputs produce Warnings and a partial analysis rather than an
// error: the tool should still explain what it can observe.
//
// The engine is pipelined and index-backed: the capture is decoded exactly
// once into a shared read-only form, then the per-layer passes of QoE
// Doctor §5 — independent until the final binding — run as concurrent
// stages joined by a deterministic merge. Its output is byte-identical to
// the seed's serial analyzer, which the package tests keep as an oracle
// (see DESIGN.md §10 and §18).
//
// Stage graph (edges are WaitGroup barriers, so every cross-stage read is
// ordered by a happens-before edge):
//
//	predecode (parallel chunks over the record slice)
//	  ├─ flow reassembly          ─┐
//	  ├─ UL PDU dedup + index      │
//	  ├─ DL PDU dedup + index      ├─ barrier ─┬─ UL long-jump mapping
//	  ├─ packet split (UL/DL)      │           ├─ DL long-jump mapping
//	  └─ radio coverage audit     ─┘           └─ trace cross-check
//	                                                └─ deterministic merge
//
// Determinism: every stage computes a pure function of the session; the
// only order-sensitive output is Warnings, which the final merge assembles
// in the seed engine's fixed order (capture, radio, trace) regardless of
// stage completion order. No stage iterates a map into an output.
func NewCrossLayer(sess *qoe.Session) *CrossLayer {
	c := &CrossLayer{Session: sess}
	predecode(sess.Packets)

	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}

	var ulIx, dlIx *pduIndex
	var covWarns, traceWarns []string
	run(func() { c.Flows = ExtractFlows(sess.Packets, sess.DeviceAddr) })
	if sess.Radio != nil {
		run(func() {
			ulIx = buildPDUIndex(dedupPDUs(directionPDUs(sess.Radio.PDUs, radio.Uplink)))
			c.ULPDUs = ulIx.dedup
		})
		run(func() {
			dlIx = buildPDUIndex(dedupPDUs(directionPDUs(sess.Radio.PDUs, radio.Downlink)))
			c.DLPDUs = dlIx.dedup
		})
		run(func() { c.ulPackets, c.dlPackets = splitPackets(sess) })
		run(func() { covWarns = radioCoverageWarnings(sess) })
	}
	wg.Wait()

	if sess.Radio != nil {
		run(func() { c.ULMap = mapIndexed(c.ulPackets, ulIx, nil) })
		run(func() { c.DLMap = mapIndexed(c.dlPackets, dlIx, nil) })
	}
	if len(sess.Trace) > 0 {
		run(func() { traceWarns = c.crossCheckTrace(sess.Trace) })
	}
	wg.Wait()

	// Deterministic warning merge, in the seed engine's order: capture
	// health, then radio health, then the trace cross-check.
	if len(sess.Packets) == 0 {
		c.warn("packet capture empty or absent; transport-layer analysis unavailable")
	}
	if sess.Radio == nil {
		if len(sess.Packets) > 0 {
			c.warn("QxDM log absent; radio-layer breakdowns unavailable")
		}
	} else {
		c.Warnings = append(c.Warnings, covWarns...)
	}
	c.Warnings = append(c.Warnings, traceWarns...)
	return c
}

// directionPDUs filters one direction's data PDUs out of the radio log.
func directionPDUs(pdus []qxdm.PDURecord, dir radio.Direction) []qxdm.PDURecord {
	var out []qxdm.PDURecord
	for _, p := range pdus {
		if p.Dir == dir {
			out = append(out, p)
		}
	}
	return out
}

// splitPackets partitions the capture into uplink and downlink mapper
// inputs, in capture order. Undecodable records are skipped, like the seed.
func splitPackets(sess *qoe.Session) (ul, dl []MappedPacket) {
	for i := range sess.Packets {
		rec := &sess.Packets[i]
		p, err := rec.Packet()
		if err != nil {
			continue
		}
		mp := MappedPacket{At: rec.At, Data: rec.Data}
		if p.Src.Addr == sess.DeviceAddr {
			ul = append(ul, mp)
		} else {
			dl = append(dl, mp)
		}
	}
	return ul, dl
}

// Pending is an in-flight cross-layer analysis started by Analyze.
type Pending struct {
	ch chan *CrossLayer
	cl *CrossLayer
}

// Analyze starts NewCrossLayer on its own goroutine and returns a handle,
// so a caller can overlap the analysis of a finished run with the
// simulation of the next one — the pipeline shape sweeps and multi-bed
// experiments want now that analysis, not simulation, dominates a cell.
func Analyze(sess *qoe.Session) *Pending {
	p := &Pending{ch: make(chan *CrossLayer, 1)}
	go func() { p.ch <- NewCrossLayer(sess) }()
	return p
}

// Wait blocks until the analysis completes and returns it. Idempotent.
func (p *Pending) Wait() *CrossLayer {
	if p.cl == nil {
		p.cl = <-p.ch
	}
	return p.cl
}
