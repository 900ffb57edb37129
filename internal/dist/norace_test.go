//go:build !race

package dist

// raceEnabled gates allocation assertions; see race_test.go.
const raceEnabled = false
