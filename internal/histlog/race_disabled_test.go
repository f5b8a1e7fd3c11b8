//go:build !race

package histlog

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
