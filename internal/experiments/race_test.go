//go:build race

package experiments

// raceEnabled reports that this build runs under the race detector, which
// slows the single-goroutine simulator about eightfold.
const raceEnabled = true
