//go:build !race

package exact

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count gates are skipped under -race: instrumentation adds
// its own allocations.
const raceEnabled = false
