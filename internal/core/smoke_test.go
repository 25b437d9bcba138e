package core

import (
	"testing"

	"versaslot"
	"versaslot/internal/sched"
	"versaslot/internal/workload"
)

// TestAllPoliciesComplete runs every policy on a small standard
// workload and checks that every application finishes with a positive
// response time — the basic liveness invariant.
func TestAllPoliciesComplete(t *testing.T) {
	p := workload.DefaultGenParams(workload.Standard)
	p.Apps = 8
	seq := workload.Generate(p, 7)
	for _, kind := range sched.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			res, err := versaslot.Run(versaslot.Scenario{Policy: sched.NameOf(kind), Workload: seq, Seed: 1})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Summary.Apps != len(seq.Arrivals) {
				t.Fatalf("finished %d of %d apps", res.Summary.Apps, len(seq.Arrivals))
			}
			if res.Summary.MeanRT <= 0 {
				t.Fatalf("non-positive mean response time %v", res.Summary.MeanRT)
			}
			t.Logf("%s: meanRT=%v p95=%v prLoads=%d blocked=%d util=%.3f",
				kind, res.Summary.MeanRT, res.Summary.P95,
				res.Summary.PRLoads, res.Summary.PRBlocked, res.Summary.UtilLUT)
		})
	}
}
