//go:build !race

package pidmap

// raceEnabled: see race_on_test.go.
const raceEnabled = false
