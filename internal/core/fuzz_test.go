package core

import (
	"testing"
	"testing/quick"

	"versaslot"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// TestRandomWorkloadsAlwaysComplete is a property test over the whole
// stack: arbitrary (seeded) workloads — random app mix, batch sizes,
// arrival spacing down to back-to-back — complete under every policy
// with consistent accounting. This is the closest thing to a fuzzer
// the deterministic simulator admits.
func TestRandomWorkloadsAlwaysComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed uint64, nRaw, burst uint8) bool {
		n := int(nRaw%8) + 2
		p := workload.GenParams{
			Apps:     n,
			BatchLo:  1,
			BatchHi:  12,
			Specs:    workload.Suite(),
			Condtion: workload.Stress,
			// Burstiness: anywhere between back-to-back and 1s apart.
			IntervalLo: sim.Duration(burst%10) * 20 * sim.Millisecond,
			IntervalHi: sim.Duration(burst%10+1) * 100 * sim.Millisecond,
		}
		if p.IntervalLo == 0 {
			p.IntervalLo = sim.Nanosecond
		}
		seq := workload.Generate(p, seed)
		for _, reg := range builtins() {
			res, err := versaslot.Run(versaslot.Scenario{Policy: reg.Name, Workload: seq, Seed: seed})
			if err != nil {
				t.Logf("%s seed=%d: %v", reg.Title, seed, err)
				return false
			}
			if res.Summary.Apps != n {
				t.Logf("%s seed=%d: finished %d of %d", reg.Title, seed, res.Summary.Apps, n)
				return false
			}
			for _, s := range res.Samples {
				if s.Response <= 0 {
					t.Logf("%s seed=%d: non-positive response", reg.Title, seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
