//go:build !race

package lapushdb

// raceEnabled reports whether the race detector instruments this build.
// Allocation gates are skipped under -race: instrumentation adds its own
// allocations.
const raceEnabled = false
