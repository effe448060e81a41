// Package radio simulates the cellular radio link layer that QoE Doctor
// observes through QxDM: the RRC (Radio Resource Control) state machine for
// 3G and LTE, and the RLC (Radio Link Control) acknowledged-mode data plane
// with PDU segmentation, Length Indicators, and ARQ polling/STATUS feedback.
//
// The model follows §2 of the paper: 3G has DCH/FACH/PCH states, LTE has
// CONNECTED (continuous reception, short DRX, long DRX) and IDLE_CAMPED.
// Devices promote from low-power states on data transfer (paying a promotion
// delay) and demote when inactivity timers expire. The 3G uplink RLC PDU
// payload is fixed at 40 bytes; downlink and LTE PDUs are flexible and
// larger, which is what produces the paper's Finding 2 (3G RLC transmission
// delay dominated by per-PDU processing overhead).
package radio

import (
	"fmt"
	"time"

	"repro/internal/simtime"
)

// Tech identifies the radio access technology of a profile.
type Tech int

const (
	Tech3G Tech = iota
	TechLTE
	TechWiFi // modeled as a degenerate profile with no RRC dynamics
)

func (t Tech) String() string {
	switch t {
	case Tech3G:
		return "3G"
	case TechLTE:
		return "LTE"
	case TechWiFi:
		return "WiFi"
	}
	return fmt.Sprintf("Tech(%d)", int(t))
}

// State is an RRC state. The one enum spans both technologies; a profile
// only ever uses the states of its own technology.
type State int

const (
	// 3G states.
	StatePCH  State = iota // low power, no data-plane radio
	StateFACH              // shared low-bandwidth channel
	StateDCH               // dedicated high-bandwidth channel

	// LTE states.
	StateLTEIdle     // IDLE_CAMPED, low power
	StateLTECRX      // CONNECTED, continuous reception
	StateLTEShortDRX // CONNECTED, short DRX cycle
	StateLTELongDRX  // CONNECTED, long DRX cycle

	// WiFi pseudo-state (always-on, used so the energy model has a row).
	StateWiFiActive
)

var stateNames = map[State]string{
	StatePCH:         "PCH",
	StateFACH:        "FACH",
	StateDCH:         "DCH",
	StateLTEIdle:     "IDLE_CAMPED",
	StateLTECRX:      "CONNECTED_CRX",
	StateLTEShortDRX: "CONNECTED_SHORT_DRX",
	StateLTELongDRX:  "CONNECTED_LONG_DRX",
	StateWiFiActive:  "WIFI_ACTIVE",
}

func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// StateParams describes one RRC state's power draw and data-plane rates.
type StateParams struct {
	PowerMW float64 // mean device radio power in this state
	// Data-plane bandwidths. Zero means no data-plane radio in this state
	// (PCH, IDLE): traffic forces a promotion first.
	ULBandwidthBps float64
	DLBandwidthBps float64
}

// Demotion is one step of the inactivity-driven demotion chain.
type Demotion struct {
	From  State
	To    State
	Timer time.Duration // inactivity required before demoting
}

// Transition is one RRC state change, as logged by the QxDM monitor.
type Transition struct {
	At   simtime.Time
	From State
	To   State
	// Promotion reports whether this transition was triggered by data
	// activity (true) rather than a demotion timer (false).
	Promotion bool
}

// Machine is the per-device RRC state machine.
type Machine struct {
	k       *simtime.Kernel
	prof    *Profile
	state   State
	readyAt simtime.Time // when the data plane becomes usable (promotion end)

	// demoteScale multiplies the profile's demotion timers for this
	// machine only (runtime retuning; 0 = untouched). The shared Profile
	// is never mutated — it may be referenced by every UE in a fleet.
	demoteScale float64
	transitions int

	// demoteEv is the pending demotion step, which moves the machine to
	// demoteTo when it fires; demoteFn is its callback, bound once.
	demoteEv  simtime.Event
	demoteTo  State
	demoteFn  func()
	listeners []func(Transition)
}

// NewMachine creates an RRC machine in the profile's base (lowest-power)
// state.
func NewMachine(k *simtime.Kernel, prof *Profile) *Machine {
	if err := prof.Validate(); err != nil {
		panic("radio: invalid profile: " + err.Error())
	}
	m := &Machine{k: k, prof: prof, state: prof.Base}
	m.demoteFn = m.demote
	return m
}

// Profile returns the machine's radio profile.
func (m *Machine) Profile() *Profile { return m.prof }

// State returns the current RRC state.
func (m *Machine) State() State { return m.state }

// OnTransition registers a listener invoked on every state change.
func (m *Machine) OnTransition(fn func(Transition)) {
	m.listeners = append(m.listeners, fn)
}

func (m *Machine) transition(to State, promotion bool) {
	if to == m.state {
		return
	}
	tr := Transition{At: m.k.Now(), From: m.state, To: to, Promotion: promotion}
	m.state = to
	m.transitions++
	for _, fn := range m.listeners {
		fn(tr)
	}
}

// Transitions returns the cumulative number of state changes — a cheap
// always-on RRC churn signal for runtime controllers when no QxDM monitor
// is attached.
func (m *Machine) Transitions() int { return m.transitions }

// SetDemotionScale retunes this machine's inactivity timers: every
// demotion timer is multiplied by s (> 1 = stay in high-power states
// longer, fewer promotions; < 1 = demote eagerly, save energy). The scale
// applies from the next (re)arming of the demotion chain; a timer already
// pending keeps its original deadline. s <= 0 resets to the profile's
// nominal timers.
func (m *Machine) SetDemotionScale(s float64) {
	if s <= 0 {
		s = 0
	}
	m.demoteScale = s
}

// DemotionScale returns the current demotion-timer scale (0 when never
// retuned; treat 0 and 1 as nominal).
func (m *Machine) DemotionScale() float64 { return m.demoteScale }

// OnActivity notifies the machine of a data transfer. It returns the virtual
// time at which the data plane is usable: now if already in the active
// state, or now plus the promotion delay otherwise. It also (re)arms the
// demotion timer.
func (m *Machine) OnActivity() simtime.Time {
	now := m.k.Now()
	ready := now
	if m.state != m.prof.Active {
		delay := m.prof.PromotionDelay[m.state]
		ready = now + delay
		m.transition(m.prof.Active, true)
		if ready < m.readyAt {
			ready = m.readyAt // promotion already in progress finishes first
		} else {
			m.readyAt = ready
		}
	} else if m.readyAt > now {
		ready = m.readyAt // still finishing a promotion
	}
	m.armDemotion()
	return ready
}

// ConnectionLost drops the machine to its base (lowest-power) state
// immediately — the radio-link-failure path taken on a bearer outage or
// handover gap. Any promotion in progress is abandoned, so traffic after the
// outage pays a fresh promotion delay.
func (m *Machine) ConnectionLost() {
	m.demoteEv.Cancel()
	m.demoteEv = simtime.Event{}
	m.readyAt = m.k.Now()
	m.transition(m.prof.Base, false)
}

// armDemotion restarts the inactivity demotion chain from the current state.
func (m *Machine) armDemotion() {
	m.demoteEv.Cancel()
	m.demoteEv = simtime.Event{}
	m.scheduleNextDemotion()
}

func (m *Machine) scheduleNextDemotion() {
	for _, d := range m.prof.Demotions {
		if d.From == m.state {
			timer := d.Timer
			if m.demoteScale > 0 && m.demoteScale != 1 {
				timer = time.Duration(float64(timer) * m.demoteScale)
			}
			m.demoteTo = d.To
			m.demoteEv = m.k.After(timer, m.demoteFn)
			return
		}
	}
}

// demote fires the pending demotion step and arms the next one.
func (m *Machine) demote() {
	m.demoteEv = simtime.Event{}
	m.transition(m.demoteTo, false)
	m.scheduleNextDemotion()
}

// Params returns the StateParams of the current state.
func (m *Machine) Params() StateParams { return m.prof.States[m.state] }
