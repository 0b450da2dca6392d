//go:build race

package lsh

// raceEnabled reports whether the race detector is compiled in. The
// allocation gate skips under -race: the detector makes sync.Pool drop
// items at random, so Query's pooled scratch is reallocated and the gate
// would measure the detector, not the code.
const raceEnabled = true
