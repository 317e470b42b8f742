//go:build race

package exec

// raceEnabled skips allocation counts: the race detector instruments
// allocations and makes their number vary from call to call.
const raceEnabled = true
