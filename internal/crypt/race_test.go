//go:build race

package crypt

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and allocation counts say nothing about the code.
const raceEnabled = true
