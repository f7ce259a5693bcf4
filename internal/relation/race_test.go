//go:build race

package relation

// raceEnabled reports a -race build, whose instrumentation allocates
// on its own and makes allocation counts say nothing about the code.
const raceEnabled = true
