//go:build !race

package model

// raceEnabled reports a -race build, whose allocation counts differ.
const raceEnabled = false
