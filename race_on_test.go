//go:build race

package saql

// raceEnabled reports that the race detector is compiled in: gates on bytes
// allocated skip, since sync.Pool then discards a quarter of its Puts.
const raceEnabled = true
