//go:build race

package pidmap

// raceEnabled gates the retained-heap check: heap figures taken under
// the race detector are not the program's own.
const raceEnabled = true
