//go:build race

package engine

// raceEnabled reports whether the race detector instruments this build.
// Under it the arena poisons every buffer given back and refuses one
// given back twice (arena.go).
const raceEnabled = true
