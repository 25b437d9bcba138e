//go:build !race

package versaslot_test

const raceEnabled = false
