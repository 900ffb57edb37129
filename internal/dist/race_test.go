//go:build race

package dist

// raceEnabled gates allocation assertions: under the race detector
// sync.Pool deliberately drops items to widen interleavings, so
// steady-state pool hits are not guaranteed and alloc pins would
// flake.
const raceEnabled = true
