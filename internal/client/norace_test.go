//go:build !race

package client

// raceEnabled reports a -race build, whose allocation counts differ.
const raceEnabled = false
