//go:build race

package bench

// raceEnabled reports a build with the race detector, whose
// instrumentation changes allocation counts.
const raceEnabled = true
