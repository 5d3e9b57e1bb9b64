//go:build race

package page

// raceEnabled gates the allocation ratchet: under -race, sync.Pool drops
// a quarter of all Puts at random and the detector allocates on its own
// account, so allocation counts only hold without it.
const raceEnabled = true
