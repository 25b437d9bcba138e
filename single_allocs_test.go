package versaslot_test

import (
	"testing"

	"versaslot"
	"versaslot/internal/sched"
	"versaslot/internal/workload"
)

// singleRunAllocBases are the heap allocations of one whole
// single-board Run per registered policy, on a pre-generated 20-app
// standard sequence (seed 1), measured on go1.24.0. They cover
// everything a run pays: scenario defaults and validation, building the
// board, instantiating the apps, the simulation and the Result.
var singleRunAllocBases = map[string]float64{
	"baseline":     35,
	"fcfs":         26,
	"rr":           27,
	"nimblock":     31,
	"versaslot-ol": 31,
	"versaslot-bl": 30,
}

// singleRunAllocSlack is how far a run may allocate above its base.
const singleRunAllocSlack = 3

// TestSingleRunAllocs gates what a whole single-board Run allocates for
// every registered policy: the per-run cost of every paper-sweep run.
func TestSingleRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race inflates allocation counts")
	}
	p := workload.DefaultGenParams(workload.Standard)
	seq := workload.Generate(p, 1)
	for _, r := range sched.Registrations()[:6] { // the built-ins
		base := singleRunAllocBases[r.Name]
		s := versaslot.Scenario{Policy: r.Name, Workload: seq, Seed: 1}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := versaslot.Run(s); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per run (base %.0f)", r.Name, allocs, base)
		if allocs > base+singleRunAllocSlack {
			t.Errorf("%s: a single-board run allocates %.0f times, want <= %.0f", r.Name, allocs, base+singleRunAllocSlack)
		}
	}
}
