//go:build race

package gateway_test

// raceEnabled reports a -race build: sync.Pool then drops a quarter of its
// Puts on purpose, so a pooled path allocates more than it does in a plain
// build.
const raceEnabled = true
