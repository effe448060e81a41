//go:build !race

package fleet_test

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
