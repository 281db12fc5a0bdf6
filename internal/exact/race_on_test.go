//go:build race

package exact

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
