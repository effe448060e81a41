package radio

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

func TestGridTopologyLayoutAndGain(t *testing.T) {
	topo := NewGridTopology(4, 400)
	if topo.Cells() != 4 {
		t.Fatalf("cells = %d, want 4", topo.Cells())
	}
	w, h := topo.Bounds()
	if w != 800 || h != 800 {
		t.Fatalf("bounds = %vx%v, want 800x800 (2x2 grid, 400m spacing)", w, h)
	}
	for i, s := range topo.Sites {
		if g := topo.Gain(i, s.X, s.Y); g != 1 {
			t.Fatalf("gain at site %d mast = %v, want 1", i, g)
		}
		if best, _ := topo.Strongest(s.X, s.Y); best != i {
			t.Fatalf("strongest at site %d position = %d", i, best)
		}
	}
	// Gain decreases with distance and floors at MinGain.
	s := topo.Sites[0]
	g1 := topo.Gain(0, s.X+100, s.Y)
	g2 := topo.Gain(0, s.X+300, s.Y)
	if !(g1 < 1 && g2 < g1) {
		t.Fatalf("gain not monotone: 100m=%v 300m=%v", g1, g2)
	}
	if g := topo.Gain(0, s.X+1e6, s.Y); g != topo.MinGain {
		t.Fatalf("far gain = %v, want MinGain %v", g, topo.MinGain)
	}
	// HomePos stays inside the home cell's dominance region.
	for i := 0; i < topo.Cells(); i++ {
		x, y := topo.HomePos(i, 0.93, 0.08)
		if best, _ := topo.Strongest(x, y); best != i {
			t.Fatalf("HomePos(%d) strongest = %d", i, best)
		}
	}
}

func TestMoverDeterministicAndBounded(t *testing.T) {
	topo := NewGridTopology(4, 400)
	w, h := topo.Bounds()
	sample := func() []float64 {
		m := NewMover(42, 3, topo, 15, 100, 100)
		var out []float64
		for i := 0; i <= 200; i++ {
			x, y := m.PosAt(simtime.Time(i) * simtime.Time(time.Second))
			out = append(out, x, y)
		}
		return out
	}
	a, b := sample(), sample()
	moved := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectory not deterministic at sample %d: %v != %v", i, a[i], b[i])
		}
		if a[i] < -1e-9 || a[i] > w+1e-9 {
			t.Fatalf("position %v outside bounds %vx%v", a[i], w, h)
		}
		if i >= 2 && a[i] != a[i%2] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("mover with speed 15 m/s never moved")
	}
	// Distinct UE indices walk distinct trajectories.
	m2 := NewMover(42, 4, topo, 15, 100, 100)
	x2, y2 := m2.PosAt(simtime.Time(100 * time.Second))
	if x2 == a[200] && y2 == a[201] {
		t.Fatal("two UE indices produced the same trajectory")
	}
	// Zero speed pins the mover.
	still := NewMover(42, 3, topo, 0, 77, 88)
	if x, y := still.PosAt(simtime.Time(time.Hour)); x != 77 || y != 88 {
		t.Fatalf("static mover moved to (%v, %v)", x, y)
	}
}

// hoMonitor records handover events (implements Monitor + HandoverMonitor).
type hoMonitor struct {
	recordingMonitor
	handovers []HandoverEvent
}

func (m *hoMonitor) Handover(ev HandoverEvent) { m.handovers = append(m.handovers, ev) }

// roam builds one kernel hosting both cells of a 2-cell strip plus a
// roaming bearer, drives optional traffic, and returns the roamer and
// monitor after running to the horizon.
func roam(t *testing.T, traffic bool) (*Roamer, *hoMonitor, int) {
	t.Helper()
	k := simtime.NewKernel(9)
	topo := NewGridTopology(2, 300)
	cells := []*Cell{NewCellID(k, SchedPropFair, 0), NewCellID(k, SchedPropFair, 1)}
	b := NewBearer(k, ProfileLTE())
	mon := &hoMonitor{}
	b.Attach(mon)
	x, y := topo.HomePos(0, 0.5, 0.5)
	cells[0].Attach(b, topo.Gain(0, x, y))
	mover := NewMover(9, 0, topo, 25, x, y)
	r := NewRoamer(b, topo, cells, mover, 0, RoamConfig{TTT: 200 * time.Millisecond})
	r.Start()

	delivered := 0
	if traffic {
		payload := make([]byte, 1200)
		stop := k.Ticker(40*time.Millisecond, func() {
			b.SendDownlink(payload, func(any) { delivered++ }, nil)
		})
		defer stop()
	}
	k.RunUntil(simtime.Time(3 * time.Minute))
	r.Close(k.Now())
	return r, mon, delivered
}

func TestRoamerConnectedHandover(t *testing.T) {
	r, mon, delivered := roam(t, true)
	if r.Handovers() == 0 {
		t.Fatal("25 m/s UE completed no handover in 3 minutes on a 2-cell strip")
	}
	if len(mon.handovers) != r.Handovers()+r.Reselections() {
		t.Fatalf("monitor saw %d events, roamer counted %d+%d",
			len(mon.handovers), r.Handovers(), r.Reselections())
	}
	// Connected-mode events carry the interruption; history matches.
	conn := 0
	for _, ev := range mon.handovers {
		if !ev.Reselection {
			conn++
			if ev.Interruption <= 0 {
				t.Fatalf("connected handover with no interruption: %+v", ev)
			}
		}
	}
	if conn != r.Handovers() {
		t.Fatalf("connected events %d != handover count %d", conn, r.Handovers())
	}
	if len(r.History()) != 1+len(mon.handovers) {
		t.Fatalf("history has %d entries, want %d", len(r.History()), 1+len(mon.handovers))
	}
	if got := r.ServingAt(simtime.Time(3 * time.Minute)); got != r.Serving() {
		t.Fatalf("ServingAt(end) = %d, current = %d", got, r.Serving())
	}
	if delivered == 0 {
		t.Fatal("no SDUs delivered across handovers")
	}
}

func TestRoamerIdleReselection(t *testing.T) {
	r, mon, _ := roam(t, false)
	if r.Handovers() != 0 {
		t.Fatalf("idle UE performed %d connected handovers", r.Handovers())
	}
	if r.Reselections() == 0 {
		t.Fatal("idle 25 m/s UE never reselected in 3 minutes")
	}
	for _, ev := range mon.handovers {
		if !ev.Reselection || ev.Interruption != 0 {
			t.Fatalf("idle UE produced a non-reselection event: %+v", ev)
		}
	}
}

// TestRoamerDeterministic pins the mobility determinism contract: two runs
// at the same seed produce identical handover sequences and PDU logs.
func TestRoamerDeterministic(t *testing.T) {
	run := func() ([]HandoverEvent, int, int) {
		_, mon, delivered := roam(t, true)
		return mon.handovers, delivered, len(mon.pdus)
	}
	h1, d1, p1 := run()
	h2, d2, p2 := run()
	if d1 != d2 || p1 != p2 || len(h1) != len(h2) {
		t.Fatalf("reruns diverged: deliveries %d/%d, pdus %d/%d, handovers %d/%d",
			d1, d2, p1, p2, len(h1), len(h2))
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("handover %d differs: %+v != %+v", i, h1[i], h2[i])
		}
	}
}
