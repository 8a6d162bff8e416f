//go:build !race

package server

// raceEnabled reports a -race build, whose allocation counts differ.
const raceEnabled = false
