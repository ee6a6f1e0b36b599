//go:build !race

package peb

// raceEnabled reports that the tests were built with -race.
const raceEnabled = false
