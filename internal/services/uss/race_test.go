//go:build race

package uss

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
