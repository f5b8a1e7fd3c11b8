//go:build !race

package ingress

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
