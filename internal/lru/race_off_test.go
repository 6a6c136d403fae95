//go:build !race

package lru

// raceEnabled reports whether the race detector is active; allocation-count
// assertions are skipped under -race because instrumentation allocates and
// sync.Pool drops items at random.
const raceEnabled = false
