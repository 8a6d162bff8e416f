//go:build race

package servecache

// raceEnabled reports a -race build, whose allocation counts differ.
const raceEnabled = true
