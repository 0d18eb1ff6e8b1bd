//go:build !race

package gate

const raceEnabled = false
