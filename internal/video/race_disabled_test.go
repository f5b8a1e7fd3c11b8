//go:build !race

package video

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
