//go:build !race

package columnar

const raceEnabled = false
