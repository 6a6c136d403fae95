//go:build race

package fl

// raceEnabled reports whether the race detector is active; allocation-count
// assertions are skipped under -race because instrumentation allocates.
const raceEnabled = true
