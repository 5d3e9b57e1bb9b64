//go:build !race

package page

// raceEnabled: see race_on_test.go.
const raceEnabled = false
