package cluster

import (
	"testing"

	"versaslot/internal/fabric"
	"versaslot/internal/metrics"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

func TestFarmCompletesAndBalances(t *testing.T) {
	f := MustNewFarm(DefaultFarmConfig(3))
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 30
	seq := workload.Generate(p, 9000)
	if err := f.Inject(seq); err != nil {
		t.Fatal(err)
	}
	f.Run()
	resp := merged(f)
	if resp.Apps != 30 {
		t.Fatalf("finished %d of 30", resp.Apps)
	}
	if f.UnfinishedCount() != 0 {
		t.Fatal("unfinished apps remain")
	}
	routed := f.Routed()
	total := 0
	for i, n := range routed {
		total += n
		if n == 0 {
			t.Errorf("pair %d received no arrivals — dispatcher not balancing", i)
		}
	}
	if total != 30 {
		t.Fatalf("routed %d arrivals, want 30", total)
	}
}

func TestFarmBeatsSinglePairUnderLoad(t *testing.T) {
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 40
	seq := workload.Generate(p, 9001)

	one := MustNewFarm(DefaultFarmConfig(1))
	if err := one.Inject(seq); err != nil {
		t.Fatal(err)
	}
	one.Run()
	soloResp := merged(one)

	f := MustNewFarm(DefaultFarmConfig(3))
	if err := f.Inject(seq); err != nil {
		t.Fatal(err)
	}
	f.Run()
	farmResp := merged(f)

	if farmResp.MeanRT >= soloResp.MeanRT {
		t.Fatalf("3-pair farm (%v) not faster than one pair (%v) under stress",
			farmResp.MeanRT, soloResp.MeanRT)
	}
}

func TestFarmValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-pair farm did not panic")
		}
	}()
	MustNewFarm(DefaultFarmConfig(0))
}

func TestFarmSwitchOverheadScale(t *testing.T) {
	f := MustNewFarm(DefaultFarmConfig(2))
	p := workload.DefaultGenParams(workload.Standard)
	p.Apps = 50
	p.IntervalLo, p.IntervalHi = 300*sim.Millisecond, 400*sim.Millisecond
	seq := workload.Generate(p, 9002)
	if err := f.Inject(seq); err != nil {
		t.Fatal(err)
	}
	sum := f.Run()
	if sum.Switches > 0 && sum.MeanSwitchTime > 100*sim.Millisecond {
		t.Fatalf("farm switch overhead %v beyond the ms scale", sum.MeanSwitchTime)
	}
}

// TestRebalancerCountsRequeued is the regression test for the
// rebalancer silently dropping its re-queue bookkeeping: on a
// heterogeneous farm whose idle pair cannot host the loaded pair's
// applications, extraction must return every candidate to the source
// queue AND count it, surfacing the wasted extractions in PairStat.
func TestRebalancerCountsRequeued(t *testing.T) {
	cfg := DefaultFarmConfig(2)
	cfg.PairPlatforms = []PairPlatforms{
		{Base: fabric.PYNQDual, Boost: fabric.PYNQDual},
		{}, // paper default ZCU216 pair
	}
	cfg.RebalanceEvery = 500 * sim.Millisecond
	cfg.RebalanceGap = 2
	f := MustNewFarm(cfg)

	// Every application exceeds a Small slot, so all arrivals route to
	// the ZCU216 pair; the rebalancer keeps seeing the idle PYNQ pair
	// as the least-loaded destination and keeps extracting candidates
	// it must re-queue.
	if err := f.Inject(bigOnlySequence(16)); err != nil {
		t.Fatal(err)
	}
	sum := f.Run()
	resp := merged(f)
	if resp.Apps != 16 {
		t.Fatalf("finished %d of 16", resp.Apps)
	}
	if sum.CrossMigratedApps != 0 {
		t.Fatalf("%d apps migrated to a pair that cannot host them", sum.CrossMigratedApps)
	}
	if got := sum.PairStats[1].Requeued; got == 0 {
		t.Fatal("rebalancer re-queued extractions went uncounted")
	}
	if got := sum.PairStats[0].Requeued; got != 0 {
		t.Fatalf("idle PYNQ pair shows %d re-queued apps", got)
	}
}

// merged merges every board of a farm that has run through
// Cluster.AbsorbInto, the facade's own merge, and summarizes it.
func merged(f *Farm) metrics.Summary {
	var agg metrics.Collector
	for _, p := range f.Pairs {
		p.AbsorbInto(&agg)
	}
	return agg.Summarize()
}
