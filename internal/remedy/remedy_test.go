package remedy

import (
	"testing"
	"time"
)

const tick = Interval

// feed pushes n signals derived from base (with At advanced per tick),
// mutating via fn before each Decide, and returns the actions issued.
func feed(c *Controller, n int, start time.Duration, fn func(i int) Signal) []Action {
	var out []Action
	for i := 0; i < n; i++ {
		sig := fn(i)
		sig.At = start + time.Duration(i)*tick
		if a := c.Decide(sig); a != nil {
			out = append(out, *a)
		}
	}
	return out
}

func TestFirstTickEstablishesBaseline(t *testing.T) {
	c := NewController(false, 1)
	if a := c.Decide(Signal{UE: 0, At: tick, VideoStalled: true, VideoActive: true}); a != nil {
		t.Fatalf("first tick must not act, got %v", a.Kind)
	}
}

func TestObserveNeverActs(t *testing.T) {
	c := NewController(true, 1)
	acts := feed(c, 20, tick, func(i int) Signal {
		return Signal{UE: 0, VideoActive: true, VideoStalled: true, RadioDrops: i * 5}
	})
	if len(acts) != 0 {
		t.Fatalf("observe mode issued %d actions", len(acts))
	}
}

func TestRadioEvidenceStepsLadderDown(t *testing.T) {
	c := NewController(false, 1)
	acts := feed(c, 6, tick, func(i int) Signal {
		return Signal{UE: 0, VideoActive: true, VideoStalled: true, RadioDrops: i * 3}
	})
	if len(acts) != 1 {
		t.Fatalf("want 1 action, got %d", len(acts))
	}
	if acts[0].Kind != ActionABRStepDown || acts[0].Diagnosis != LayerRadio {
		t.Fatalf("want radio-diagnosed ABR step down, got %v/%v", acts[0].Kind, acts[0].Diagnosis)
	}
}

func TestCleanRadioSwitchesServer(t *testing.T) {
	c := NewController(false, 1)
	acts := feed(c, 6, tick, func(i int) Signal {
		return Signal{UE: 0, VideoActive: true, VideoStalled: true}
	})
	if len(acts) != 1 || acts[0].Kind != ActionServerSwitch || acts[0].Diagnosis != LayerServer {
		t.Fatalf("want server switch on clean radio, got %v", acts)
	}
}

func TestPageStallSwitchesServer(t *testing.T) {
	c := NewController(false, 1)
	acts := feed(c, 6, tick, func(i int) Signal {
		return Signal{UE: 0, PageLoadAge: 10 * time.Second}
	})
	if len(acts) != 1 || acts[0].Kind != ActionServerSwitch {
		t.Fatalf("want server switch on page stall, got %v", acts)
	}
}

func TestRRCThrashRetunesOnce(t *testing.T) {
	c := NewController(false, 1)
	acts := feed(c, 30, tick, func(i int) Signal {
		return Signal{UE: 0, VideoActive: true, VideoStalled: true, RRCTransitions: i * 10}
	})
	if len(acts) == 0 || acts[0].Kind != ActionRRCRetune {
		t.Fatalf("want RRC retune first, got %v", acts)
	}
	if acts[0].Scale != 2 {
		t.Fatalf("want retune scale 2, got %v", acts[0].Scale)
	}
	if len(acts) != maxActionsPerUE {
		t.Fatalf("a burning UE should spend its budget: got %d actions", len(acts))
	}
	for _, a := range acts[1:] {
		if a.Kind == ActionRRCRetune {
			t.Fatalf("RRC retune issued twice")
		}
	}
}

// TestCooldownAndBudget: a UE that burns with radio evidence on every tick
// is acted on every 10 s until its budget of four actions is spent.
func TestCooldownAndBudget(t *testing.T) {
	c := NewController(false, 1)
	var at []time.Duration
	for i := 0; i < 60; i++ {
		sig := Signal{UE: 0, At: tick * time.Duration(i+1), VideoActive: true, VideoStalled: true,
			RadioDrops: i, ServerSwitched: true}
		if a := c.Decide(sig); a != nil {
			at = append(at, sig.At)
		}
	}
	if len(at) != 4 {
		t.Fatalf("budget 4: got %d actions at %v", len(at), at)
	}
	for i := 1; i < len(at); i++ {
		if gap := at[i] - at[i-1]; gap != 10*time.Second {
			t.Fatalf("actions at %v: gap %v, want the 10s cooldown", at, gap)
		}
	}
}

// TestHealthyStreakStepsBackUp: after a burn moved the ladder down, the
// eighth healthy tick in a row steps it back up, and no earlier one does.
func TestHealthyStreakStepsBackUp(t *testing.T) {
	c := NewController(false, 1)
	// Burn first so the ladder is down one rung.
	feed(c, 6, tick, func(i int) Signal {
		return Signal{UE: 0, VideoActive: true, VideoStalled: true, RadioDrops: i * 2}
	})
	// Then a clean streak at rung 1.
	clean := func(int) Signal { return Signal{UE: 0, VideoActive: true, VideoRung: 1} }
	for _, a := range feed(c, 7, 100*time.Second, clean) {
		if a.Kind == ActionABRStepUp {
			t.Fatalf("stepped up within seven healthy ticks: %v", a)
		}
	}
	acts := feed(c, 1, 100*time.Second+7*tick, clean)
	if len(acts) != 1 || acts[0].Kind != ActionABRStepUp {
		t.Fatalf("want a step up on the eighth healthy tick, got %v", acts)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Action {
		c := NewController(false, 3)
		var out []Action
		for i := 0; i < 40; i++ {
			for ue := 0; ue < 3; ue++ {
				sig := Signal{
					UE: ue, At: time.Duration(i+1) * tick,
					VideoActive:  true,
					VideoStalled: (i+ue)%3 != 0,
					RadioDrops:   i * (ue + 1),
					VideoRung:    0,
				}
				if a := c.Decide(sig); a != nil {
					out = append(out, *a)
				}
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay divergence: %d vs %d actions", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay divergence at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatalf("scenario produced no actions")
	}
}
