//go:build race

package lapushdb

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
