//go:build race

package engine

// raceEnabled reports that this build runs under the race detector,
// where sync.Pool discards buffers at random and allocation counts mean
// nothing.
const raceEnabled = true
