//go:build race

package archive

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of what is put back, so a pooled path re-allocates its scratch at
// random and per-block allocation counts mean nothing.
const raceEnabled = true
