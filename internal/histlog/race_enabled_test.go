//go:build race

package histlog

// raceEnabled reports whether the race detector instruments this build;
// testing.AllocsPerRun over-reports under it, so allocation-pinning
// tests skip themselves.
const raceEnabled = true
