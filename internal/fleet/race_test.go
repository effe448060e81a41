//go:build race

package fleet_test

// raceEnabled reports a -race build. The race runtime changes heap
// allocation counts (sync.Pool, for one, drops items at random), so
// allocation budgets hold only without it.
const raceEnabled = true
