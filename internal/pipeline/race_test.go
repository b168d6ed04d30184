//go:build race

package pipeline

// raceEnabled reports whether the race detector is on: it drops
// sync.Pool items at random, so encoding/json's allocation count per
// call varies and allocation counts cannot be compared.
const raceEnabled = true
