//go:build !race

package telemetry

// raceEnabled reports a -race build, whose allocation counts differ.
const raceEnabled = false
