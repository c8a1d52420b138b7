//go:build race

package stats

// raceEnabled reports whether the race detector is on. It slows the
// resampling loops ~10x, and it makes sync.Pool drop a random share of Puts.
const raceEnabled = true
