//go:build !race

package saql

const raceEnabled = false
