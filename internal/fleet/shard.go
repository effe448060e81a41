package fleet

import (
	"time"

	"repro/internal/radio"
	"repro/internal/simtime"
)

// Shard is one cell's slice of a fleet: its own event kernel hosting the
// full stacks of every UE homed on the cell, plus a local instance of
// every topology cell so handovers stay kernel-local (a UE's stack
// captures its kernel at construction and cannot migrate). A one-cell
// fleet is a single shard.
//
// Cross-shard contention on the same topology cell is modeled at epoch
// granularity: at every lookahead barrier the shards exchange per-cell
// airtime, and each local cell instance gets the capacity fraction its
// peers left free for the next epoch. Within a shard contention stays
// PDU-exact; across shards it is staleness-bounded by the lookahead window
// (the X2 latency — exactly the horizon inside which one cell cannot react
// to another in a real RAN either).
type Shard struct {
	Index int
	K     *simtime.Kernel
	// Cells[c] is this shard's local instance of topology cell c.
	Cells []*radio.Cell
	UEs   []*UE
}

// minCellShare floors the epoch capacity share so a briefly overloaded
// cell slows its bearers instead of freezing them.
const minCellShare = 1.0 / 8

// shardSeed derives shard s's kernel seed from the scenario seed
// (splitmix64 finalizer) so shard RNG streams are independent but fully
// determined by the scenario.
func shardSeed(seed int64, s int) int64 {
	z := uint64(seed) + uint64(s+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// uePos derives UE index's deterministic spawn offsets in [0,1)² from the
// scenario seed, independent of every other randomness stream.
func uePos(seed int64, index int) (u, v float64) {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(index+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u = float64(z>>11) / float64(1<<53)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	v = float64(z>>11) / float64(1<<53)
	return u, v
}

// exchange is the lockstep barrier: collect every shard's airtime on every
// topology cell over the finished epoch, then give each shard's local cell
// instance the capacity fraction its peers left free for the next epoch.
// It runs serially on the coordinator, iterating shards and cells in index
// order — the only cross-shard data flow, and fully deterministic.
func (f *Fleet) exchange(end simtime.Time) {
	window := f.Topo.X2Latency
	for c := range f.Topo.Sites {
		var totUL, totDL simtime.Time
		for s, sh := range f.Shards {
			ul, dl := sh.Cells[c].TakeAirtime()
			f.airUL[c][s], f.airDL[c][s] = ul, dl
			totUL += ul
			totDL += dl
		}
		for s, sh := range f.Shards {
			sh.Cells[c].SetShares(
				capShare(window, totUL-f.airUL[c][s]),
				capShare(window, totDL-f.airDL[c][s]))
		}
	}
}

// capShare converts the airtime other shards consumed on a cell during one
// lookahead window into this shard's capacity share for the next epoch.
func capShare(window time.Duration, others simtime.Time) float64 {
	if others <= 0 {
		return 1
	}
	share := 1 - float64(others)/float64(window)
	if share < minCellShare {
		return minCellShare
	}
	return share
}
