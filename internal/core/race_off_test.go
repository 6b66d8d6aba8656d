//go:build !race

package core

// raceEnabled reports whether the race detector instruments this build.
// Allocation-ceiling tests skip under -race: instrumentation adds heap
// allocations that are not present in production builds.
const raceEnabled = false
