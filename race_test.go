//go:build race

package versaslot_test

// raceEnabled reports a -race build, whose instrumentation inflates
// every allocation and timing figure TestBenchCeilings pins.
const raceEnabled = true
