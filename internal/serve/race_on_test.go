//go:build race

package serve

// raceEnabled gates assertions on scheduling order: the race detector
// randomises the Go scheduler's run-next slot, so under -race only the
// correctness assertions hold.
const raceEnabled = true
