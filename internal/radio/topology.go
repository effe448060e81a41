package radio

import (
	"fmt"
	"math"
	"time"
)

// Site is one base-station position in a Topology.
type Site struct {
	ID   int
	X, Y float64 // meters
}

// Topology is a seeded multi-cell layout: base-station sites on a plane
// plus the path-loss model that maps UE position to per-cell link gain.
// Gains feed the bearer's bandwidth multiplier and drive measurement
// reports, handover decisions, and idle-mode reselection. All methods are
// pure functions of position, so concurrent shards can share one Topology.
type Topology struct {
	Sites []Site

	// SpacingM is the inter-site distance the grid was laid out with.
	SpacingM float64
	// X2Latency is the inter-cell coordination latency: the minimum time
	// for any state at one cell to influence another. It is both the
	// handover data-forwarding delay and the safe conservative-lookahead
	// window for sharded simulation.
	X2Latency time.Duration

	width, height float64 // roaming bounds
}

// The grid's defaults and its propagation model.
const (
	defaultSpacingM  = 500.0
	defaultX2Latency = 10 * time.Millisecond
	// refDistM is the distance of full nominal gain: closer than this the
	// gain clamps to 1 (no "super-cell" boost at the mast).
	refDistM = 60.0
	// pathLossExp is the path-loss exponent (free space 2, urban 2.7-3.5).
	pathLossExp = 2.6
	// minGain floors the gain so a UE at the coverage edge still drains its
	// queue (the stack has no concept of total loss of service here —
	// outages model that).
	minGain = 0.05
)

// NewGridTopology lays out cells on a near-square grid with the given
// inter-site distance (0 = 500m) and an X2 latency of 10ms, which the
// caller may change before use.
func NewGridTopology(cells int, spacingM float64) *Topology {
	if cells < 1 {
		panic(fmt.Sprintf("radio: topology needs >= 1 cell, got %d", cells))
	}
	if spacingM <= 0 {
		spacingM = defaultSpacingM
	}
	cols := int(math.Ceil(math.Sqrt(float64(cells))))
	rows := (cells + cols - 1) / cols
	t := &Topology{
		SpacingM:  spacingM,
		X2Latency: defaultX2Latency,
		width:     float64(cols) * spacingM,
		height:    float64(rows) * spacingM,
	}
	for i := 0; i < cells; i++ {
		col, row := i%cols, i/cols
		t.Sites = append(t.Sites, Site{
			ID: i,
			X:  (float64(col) + 0.5) * spacingM,
			Y:  (float64(row) + 0.5) * spacingM,
		})
	}
	return t
}

// Cells returns the number of sites.
func (t *Topology) Cells() int { return len(t.Sites) }

// Bounds returns the roaming area movers stay within.
func (t *Topology) Bounds() (w, h float64) { return t.width, t.height }

// Gain returns the link gain (bandwidth multiplier, <= 1) between site and
// a UE at (x, y) under the distance-power-law path-loss model.
func (t *Topology) Gain(site int, x, y float64) float64 {
	s := t.Sites[site]
	d := math.Hypot(x-s.X, y-s.Y)
	if d <= refDistM {
		return 1
	}
	g := math.Pow(refDistM/d, pathLossExp)
	if g < minGain {
		return minGain
	}
	return g
}

// Strongest returns the site with the highest gain at (x, y), breaking
// exact ties by lowest ID so the choice is deterministic.
func (t *Topology) Strongest(x, y float64) (site int, gain float64) {
	gain = math.Inf(-1)
	for i := range t.Sites {
		if g := t.Gain(i, x, y); g > gain {
			site, gain = i, g
		}
	}
	return site, gain
}

// HomePos returns a deterministic position near the given site for UE
// placement: u and v in [0, 1) spread UEs over the inner 60% of the cell so
// every UE's strongest cell starts as its home cell.
func (t *Topology) HomePos(site int, u, v float64) (x, y float64) {
	s := t.Sites[site]
	r := 0.3 * t.SpacingM
	return s.X + (2*u-1)*r, s.Y + (2*v-1)*r
}
