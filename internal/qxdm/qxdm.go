// Package qxdm simulates the Qualcomm eXtensible Diagnostic Monitor used by
// QoE Doctor to collect radio-link-layer data (§4.3.3). Like the real tool,
// it logs RRC state transitions and RLC PDUs — and like the real tool it has
// two limitations the analyzer must cope with: only the first 2 payload
// bytes of each PDU are recorded, and a small fraction of PDUs are missed
// entirely (which is why the paper's IP-to-RLC mapping reaches 99.52% on the
// uplink and 88.83% on the downlink, not 100%).
package qxdm

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/radio"
	"repro/internal/simtime"
)

// PDURecord is what QxDM logs per data PDU.
type PDURecord struct {
	At   simtime.Time    `json:"at"`
	Dir  radio.Direction `json:"dir"`
	Seq  uint32          `json:"seq"`
	Size int             `json:"size"`
	Head [2]byte         `json:"head"` // first 2 payload bytes only
	LI   []int           `json:"li,omitempty"`
	Poll bool            `json:"poll,omitempty"`
	Retx bool            `json:"retx,omitempty"`
}

// StatusRecord is one logged ARQ STATUS PDU.
type StatusRecord struct {
	At     simtime.Time    `json:"at"`
	Dir    radio.Direction `json:"dir"` // direction of the data flow acknowledged
	AckSeq uint32          `json:"ack"`
	Nack   []uint32        `json:"nack,omitempty"`
}

// TransitionRecord is one logged RRC state change.
type TransitionRecord struct {
	At        simtime.Time `json:"at"`
	From      radio.State  `json:"from"`
	To        radio.State  `json:"to"`
	Promotion bool         `json:"promotion"`
}

// HandoverRecord is one logged serving-cell change (connected-mode
// handover or idle-mode reselection).
type HandoverRecord struct {
	At          simtime.Time `json:"at"`
	From        int          `json:"from"`
	To          int          `json:"to"`
	Reselection bool         `json:"reselection,omitempty"`
	// InterruptionNs is the data-plane stall in nanoseconds (0 for
	// reselections).
	InterruptionNs int64 `json:"interruption_ns,omitempty"`
}

// Log is a complete QxDM session log.
type Log struct {
	Profile     string             `json:"profile"`
	Transitions []TransitionRecord `json:"transitions"`
	PDUs        []PDURecord        `json:"pdus"`
	Statuses    []StatusRecord     `json:"statuses"`
	Handovers   []HandoverRecord   `json:"handovers,omitempty"`
	// Missed counts PDUs the monitor failed to capture, by direction
	// (ground truth the analyzer does not get to see; exported for tests).
	Missed [2]int `json:"missed"`
}

// Monitor implements radio.Monitor, recording into a Log with per-direction
// capture-loss probabilities.
type Monitor struct {
	k       *simtime.Kernel
	log     *Log
	lossUL  float64
	lossDL  float64
	enabled bool
}

// Attach creates a monitor wired to the bearer, with capture-loss rates
// taken from the bearer's profile.
func Attach(b *radio.Bearer) *Monitor {
	prof := b.Profile()
	m := &Monitor{
		k:       b.Kernel(),
		log:     &Log{Profile: prof.Name},
		lossUL:  prof.CaptureLossUL,
		lossDL:  prof.CaptureLossDL,
		enabled: true,
	}
	b.Attach(m)
	return m
}

// SetEnabled pauses or resumes logging.
func (m *Monitor) SetEnabled(on bool) { m.enabled = on }

// Log returns the accumulated log.
func (m *Monitor) Log() *Log { return m.log }

// Reset starts a fresh log (between experiment repetitions).
func (m *Monitor) Reset() {
	m.log = &Log{Profile: m.log.Profile}
}

// RRCTransition implements radio.Monitor.
func (m *Monitor) RRCTransition(tr radio.Transition) {
	if !m.enabled {
		return
	}
	m.log.Transitions = append(m.log.Transitions, TransitionRecord{
		At: tr.At, From: tr.From, To: tr.To, Promotion: tr.Promotion,
	})
}

// DataPDU implements radio.Monitor, applying capture loss and the 2-byte
// payload truncation.
func (m *Monitor) DataPDU(p *radio.PDU) {
	if !m.enabled {
		return
	}
	loss := m.lossUL
	if p.Dir == radio.Downlink {
		loss = m.lossDL
	}
	if loss > 0 && m.k.Rand().Float64() < loss {
		m.log.Missed[p.Dir]++
		return
	}
	m.log.PDUs = append(m.log.PDUs, PDURecord{
		At: p.SentAt, Dir: p.Dir, Seq: p.Seq, Size: p.Size, Head: p.Head,
		LI: append([]int(nil), p.LI...), Poll: p.Poll, Retx: p.Retx,
	})
}

// Handover implements radio.HandoverMonitor, logging serving-cell changes
// the way QxDM logs RRC signaling.
func (m *Monitor) Handover(ev radio.HandoverEvent) {
	if !m.enabled {
		return
	}
	m.log.Handovers = append(m.log.Handovers, HandoverRecord{
		At: ev.At, From: ev.From, To: ev.To,
		Reselection:    ev.Reselection,
		InterruptionNs: int64(ev.Interruption),
	})
}

// StatusPDU implements radio.Monitor.
func (m *Monitor) StatusPDU(st radio.StatusPDU) {
	if !m.enabled {
		return
	}
	m.log.Statuses = append(m.log.Statuses, StatusRecord{
		At: st.At, Dir: st.Dir, AckSeq: st.AckSeq,
		Nack: append([]uint32(nil), st.Nack...),
	})
}

// Write serializes the log as JSON.
func (l *Log) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(l)
}

// WriteFile writes the log to path.
func (l *Log) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := l.Write(f); err != nil {
		return err
	}
	return f.Close()
}

// Read parses a log written by Write. It rejects a PDU whose size is
// negative or whose Length Indicator lies outside [0, size], since the
// analyzer indexes payload bytes by both.
func Read(r io.Reader) (*Log, error) {
	var l Log
	if err := json.NewDecoder(r).Decode(&l); err != nil {
		return nil, err
	}
	for i, p := range l.PDUs {
		if p.Size < 0 {
			return nil, fmt.Errorf("qxdm: PDU %d has negative size %d", i, p.Size)
		}
		for _, li := range p.LI {
			if li < 0 || li > p.Size {
				return nil, fmt.Errorf("qxdm: PDU %d has Length Indicator %d outside [0, %d]", i, li, p.Size)
			}
		}
	}
	return &l, nil
}

// ReadFile reads a log from path.
func ReadFile(path string) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
