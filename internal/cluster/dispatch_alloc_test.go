package cluster

import (
	"testing"

	"versaslot/internal/fabric"
	"versaslot/internal/workload"
)

// heteroPlatforms cycles ZCU216 (default) / U250 quad / PYNQ dual over
// the farm's pairs, matching the mixed-platform benchmark.
func heteroPlatforms(pairs int) []PairPlatforms {
	platforms := make([]PairPlatforms, pairs)
	for i := range platforms {
		switch i % 3 {
		case 1:
			platforms[i] = PairPlatforms{Base: fabric.U250Quad, Boost: fabric.U250Quad}
		case 2:
			platforms[i] = PairPlatforms{Base: fabric.PYNQDual, Boost: fabric.PYNQDual}
		}
	}
	return platforms
}

// TestDispatchSteadyStateZeroAlloc pins the tentpole: once eligibility
// and affinity caches are warm, routing an arrival allocates nothing —
// on uniform and heterogeneous farms, for every registered dispatcher.
func TestDispatchSteadyStateZeroAlloc(t *testing.T) {
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 8
	apps, err := workload.Generate(p, 7).Instantiate(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, hetero := range []bool{false, true} {
		for _, name := range DispatcherNames() {
			label := name
			if hetero {
				label += "/hetero"
			}
			t.Run(label, func(t *testing.T) {
				cfg := DefaultFarmConfig(6)
				cfg.Dispatcher = name
				if hetero {
					cfg.PairPlatforms = heteroPlatforms(cfg.Pairs)
				}
				f := MustNewFarm(cfg)
				for _, a := range apps { // warm per-spec caches
					f.dispatcher.Pick(a)
				}
				i := 0
				allocs := testing.AllocsPerRun(200, func() {
					f.dispatcher.Pick(apps[i%len(apps)])
					i++
				})
				if allocs != 0 {
					t.Errorf("steady-state Pick allocates %.1f objects per arrival, want 0", allocs)
				}
			})
		}
	}
}

// TestDispatchEligibleOutageZeroAlloc covers the degraded path: with an
// open outage the availability filter runs per arrival, and its pool
// must come from the farm's scratch buffer, not a fresh slice.
func TestDispatchEligibleOutageZeroAlloc(t *testing.T) {
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 4
	apps, err := workload.Generate(p, 7).Instantiate(0)
	if err != nil {
		t.Fatal(err)
	}
	f := MustNewFarm(DefaultFarmConfig(4))
	f.PairOutage(2)
	for _, a := range apps {
		f.DispatchEligible(a)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		f.DispatchEligible(apps[i%len(apps)])
		i++
	})
	if allocs != 0 {
		t.Errorf("DispatchEligible allocates %.1f objects per arrival under an outage, want 0", allocs)
	}
}
