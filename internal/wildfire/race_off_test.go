//go:build !race

package wildfire

const raceEnabled = false
