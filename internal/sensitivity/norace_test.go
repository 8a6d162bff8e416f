//go:build !race

package sensitivity

// raceEnabled reports a -race build, whose allocation counts differ.
const raceEnabled = false
