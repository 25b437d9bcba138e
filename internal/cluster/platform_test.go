package cluster

import (
	"testing"

	"versaslot/internal/fabric"
	"versaslot/internal/migrate"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// pynqFarm builds a two-pair farm whose pair 0 is PYNQ-class (2 Small
// slots) and pair 1 the paper's ZCU216 pair.
func pynqFarm(t *testing.T, dispatcher string) *Farm {
	t.Helper()
	cfg := DefaultFarmConfig(2)
	cfg.Dispatcher = dispatcher
	cfg.PairPlatforms = []PairPlatforms{
		{Base: fabric.PYNQDual, Boost: fabric.PYNQDual},
		{}, // paper default
	}
	return MustNewFarm(cfg)
}

// bigOnlySequence builds a sequence of applications whose tasks exceed
// a Small slot (LeNet's partitioning targets nearly full Little slots).
func bigOnlySequence(n int) *workload.Sequence {
	seq := &workload.Sequence{Name: "lenet-only", Condition: "Stress", Seed: 1}
	at := sim.Duration(0)
	for i := 0; i < n; i++ {
		seq.Arrivals = append(seq.Arrivals, workload.Arrival{Spec: "LeNet", Batch: 5, At: at})
		at += 150 * sim.Millisecond
	}
	return seq
}

// TestCapacityAwareDispatchRoutesAwayFromSmallPair is the acceptance
// bar for capacity-aware dispatch: every application that fits no slot
// class of the PYNQ pair must route to the ZCU216 pair, even though
// least-loaded dispatch would otherwise have picked the idle PYNQ pair
// for roughly half of them.
func TestCapacityAwareDispatchRoutesAwayFromSmallPair(t *testing.T) {
	for _, dispatcher := range []string{DispatchLeastLoaded, DispatchRoundRobin, DispatchPowerOfTwo, DispatchAffinity} {
		t.Run(dispatcher, func(t *testing.T) {
			f := pynqFarm(t, dispatcher)
			if err := f.Inject(bigOnlySequence(8)); err != nil {
				t.Fatal(err)
			}
			f.Run()
			routed := f.Routed()
			if routed[0] != 0 {
				t.Fatalf("%s routed %d unhostable apps to the PYNQ pair", dispatcher, routed[0])
			}
			if routed[1] != 8 {
				t.Fatalf("%s routed %d apps to the ZCU216 pair, want all 8", dispatcher, routed[1])
			}
		})
	}
}

// TestCapacityAwareDispatchStillUsesSmallPair: applications that do
// fit the PYNQ pair keep flowing to it (the filter narrows choice, it
// does not blacklist the pair).
func TestCapacityAwareDispatchStillUsesSmallPair(t *testing.T) {
	f := pynqFarm(t, DispatchRoundRobin)
	seq := &workload.Sequence{Name: "ic-only", Condition: "Stress", Seed: 1}
	at := sim.Duration(0)
	for i := 0; i < 6; i++ {
		// IC's heaviest task uses 0.57 of a Little slot — it fits Small.
		seq.Arrivals = append(seq.Arrivals, workload.Arrival{Spec: "IC", Batch: 5, At: at})
		at += 200 * sim.Millisecond
	}
	if err := f.Inject(seq); err != nil {
		t.Fatal(err)
	}
	f.Run()
	resp := merged(f)
	if f.Routed()[0] == 0 {
		t.Fatal("hostable apps never reached the PYNQ pair")
	}
	if resp.Apps != 6 {
		t.Fatalf("finished %d apps, want 6", resp.Apps)
	}
}

// TestFarmRejectsGloballyUnhostableApp: a workload no pair can host
// errors at Inject instead of deadlocking mid-run.
func TestFarmRejectsGloballyUnhostableApp(t *testing.T) {
	cfg := DefaultFarmConfig(2)
	cfg.PairPlatforms = []PairPlatforms{
		{Base: fabric.PYNQDual, Boost: fabric.PYNQDual},
		{Base: fabric.PYNQDual, Boost: fabric.PYNQDual},
	}
	f := MustNewFarm(cfg)
	if err := f.Inject(bigOnlySequence(1)); err == nil {
		t.Fatal("globally unhostable app accepted")
	}
}

// TestRebalancerValidatesDestinationCompatibility: cross-pair
// migration must not move an application onto a pair whose slot
// classes cannot hold it — queued LeNets stay on the ZCU216 pair even
// when the PYNQ pair is idle.
func TestRebalancerValidatesDestinationCompatibility(t *testing.T) {
	cfg := DefaultFarmConfig(2)
	cfg.PairPlatforms = []PairPlatforms{
		{}, // ZCU216 pair (gets swamped)
		{Base: fabric.PYNQDual, Boost: fabric.PYNQDual},
	}
	cfg.RebalanceEvery = 500 * sim.Millisecond
	cfg.RebalanceGap = 1
	f := MustNewFarm(cfg)
	if err := f.Inject(bigOnlySequence(10)); err != nil {
		t.Fatal(err)
	}
	sum := f.Run()
	resp := merged(f)
	if got := f.Routed()[1] + f.Pairs[1].crossIn; got != 0 {
		t.Fatalf("%d unhostable apps reached the PYNQ pair (routed %d, migrated in %d)",
			got, f.Routed()[1], f.Pairs[1].crossIn)
	}
	if sum.CrossMigratedApps != 0 {
		t.Fatalf("rebalancer migrated %d apps onto an incompatible pair", sum.CrossMigratedApps)
	}
	if resp.Apps != 10 {
		t.Fatalf("finished %d apps, want 10", resp.Apps)
	}
}

// TestClusterPairPlatformAssignment: a pair built on uniform U250
// platforms runs the Only.Little-style policy on Large slots and
// completes a workload.
func TestClusterPairPlatformAssignment(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BasePlatform = fabric.U250Quad
	cfg.BoostPlatform = fabric.U250Quad
	f := onePair(t, cfg)
	if f.Pairs[0].Platform(migrate.Base).Name != fabric.U250Quad {
		t.Fatal("base platform assignment ignored")
	}
	p := workload.DefaultGenParams(workload.Standard)
	p.Apps = 6
	if err := f.Inject(workload.Generate(p, 9)); err != nil {
		t.Fatal(err)
	}
	f.Run()
	resp := merged(f)
	if resp.Apps != 6 {
		t.Fatalf("finished %d apps, want 6", resp.Apps)
	}
}

// TestClusterRejectsVirtualPairPlatform: the monolithic baseline
// template has no DPR slots and cannot form a switching pair.
func TestClusterRejectsVirtualPairPlatform(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BoostPlatform = fabric.ZCU216Monolithic
	if _, err := NewFarm(FarmConfig{Pair: cfg, Pairs: 1}); err == nil {
		t.Fatal("virtual platform accepted into a switching pair")
	}
}
