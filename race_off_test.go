//go:build !race

package umzi_test

const raceEnabled = false
