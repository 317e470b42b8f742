//go:build race

package main

// raceEnabled lifts the quick suite's time limit: the detector slows the
// engine several times over.
const raceEnabled = true
