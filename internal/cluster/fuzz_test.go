package cluster

import (
	"testing"

	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// FuzzPairSwitching drives the pair's switching loop — D_switch, the
// Schmitt trigger, intra-pair live migration — and, with more than one
// pair, cross-pair rebalancing, over arbitrary thresholds and windows.
// Each input builds a farm of 1 + pairs%4 pairs seeded with seed,
// runs apps%41 generated applications of condition cond%4 (loose,
// standard, stress, real-time) with D_switch re-evaluated every
// window%16 queue updates, and rebalances every rebalanceMs
// milliseconds when that is non-zero. Thresholds without a buffer zone
// and a zero window must be refused by NewFarm; every other input must
// run without a panic and finish every application.
func FuzzPairSwitching(f *testing.F) {
	// Inputs that once crashed the process: a switch fired by a
	// migrated app's delivery stranded the rest of the transfer on the
	// frozen board (the first four), and a switch refused while a
	// transfer was in flight left the trigger out of step with the
	// pair (the last).
	f.Add(uint64(1), uint8(3), 0.3, 0.1, uint8(2), uint8(20), uint8(0), uint16(0))
	f.Add(uint64(3), uint8(3), 0.3, 0.1, uint8(2), uint8(20), uint8(0), uint16(0))
	f.Add(uint64(6), uint8(3), 0.3, 0.1, uint8(2), uint8(20), uint8(0), uint16(0))
	f.Add(uint64(5), uint8(2), 0.3, 0.1, uint8(2), uint8(20), uint8(0), uint16(0))
	f.Add(uint64(62), uint8(3), 0.06, 0.014285714285714287, uint8(1), uint8(39), uint8(0), uint16(0))
	// The paper's setup on a rebalancing four-pair farm.
	f.Add(uint64(7), uint8(2), 0.1, 0.0125, uint8(4), uint8(40), uint8(3), uint16(500))
	f.Fuzz(func(t *testing.T, seed uint64, cond uint8, up, down float64, window, apps, pairs uint8, rebalanceMs uint16) {
		cfg := DefaultFarmConfig(1 + int(pairs%4))
		cfg.Pair.Seed = seed
		cfg.Pair.ThresholdUp, cfg.Pair.ThresholdDown = up, down
		cfg.Pair.WindowUpdates = int(window % 16)
		cfg.RebalanceEvery = sim.Duration(rebalanceMs) * sim.Millisecond
		farm, err := NewFarm(cfg)
		if !(up > down) || window%16 == 0 {
			if err == nil {
				t.Fatalf("NewFarm accepted thresholds %g/%g and window %d", up, down, window%16)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		p := workload.DefaultGenParams(workload.Conditions()[cond%4])
		p.Apps = int(apps % 41)
		if err := farm.Inject(workload.Generate(p, seed)); err != nil {
			t.Fatal(err)
		}
		farm.Run()
		if resp := merged(farm); resp.Apps != p.Apps || farm.UnfinishedCount() != 0 {
			t.Fatalf("finished %d of %d apps, %d unfinished", resp.Apps, p.Apps, farm.UnfinishedCount())
		}
	})
}
