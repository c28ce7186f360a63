//go:build !race

package core

// raceEnabled reports a build with the race detector, whose
// instrumentation changes allocation counts.
const raceEnabled = false
