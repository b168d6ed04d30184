//go:build race

package evcodec

// raceEnabled reports whether the race detector is on: it drops
// sync.Pool items at random, so pool-reuse assertions cannot hold.
const raceEnabled = true
