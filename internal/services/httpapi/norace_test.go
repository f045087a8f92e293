//go:build !race

package httpapi

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
