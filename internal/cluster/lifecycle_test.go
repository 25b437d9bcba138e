package cluster

import (
	"testing"

	"versaslot/internal/fabric"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// heteroLifecycleFarm builds the lifecycle test fixture: a PYNQ pair
// (hosts nothing big), an online ZCU216 pair, and a standby ZCU216
// pair.
func heteroLifecycleFarm(t *testing.T, dispatcher string) *Farm {
	t.Helper()
	cfg := DefaultFarmConfig(3)
	cfg.Standby = 1
	cfg.PairPlatforms = []PairPlatforms{
		{Base: fabric.PYNQDual, Boost: fabric.PYNQDual},
		{}, // paper default ZCU216 pair
		{}, // paper default ZCU216 pair, starts standby
	}
	if dispatcher != "" {
		cfg.Dispatcher = dispatcher
	}
	return MustNewFarm(cfg)
}

// TestEligibleTracksPairLifecycle is the regression test for the
// per-spec eligibility cache surviving a pool change: the cached pair
// set must be invalidated on every activate/drain transition, or a
// newly commissioned pair stays invisible to dispatch (and a drained
// pair keeps receiving arrivals) for the rest of the run.
func TestEligibleTracksPairLifecycle(t *testing.T) {
	f := heteroLifecycleFarm(t, "")
	app, err := bigOnlySequence(1).Instantiate(0)
	if err != nil {
		t.Fatal(err)
	}
	a := app[0]

	want := func(label string, want ...int) {
		t.Helper()
		got := f.Eligible(a)
		if len(got) != len(want) {
			t.Fatalf("%s: eligible = %v, want %v", label, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: eligible = %v, want %v", label, got, want)
			}
		}
	}

	// Prime the cache, then transition the pool under it.
	want("initial (pair 2 standby)", 1)
	want("cached", 1)

	if err := f.ActivatePair(2); err != nil {
		t.Fatal(err)
	}
	want("after activate", 1, 2)

	if _, err := f.StartDrain(1); err != nil {
		t.Fatal(err)
	}
	// A draining pair stays commissioned (its queue is mid-migration)
	// but stops taking new arrivals.
	want("during drain", 1, 2)
	if got := f.DispatchEligible(a); len(got) != 1 || got[0] != 2 {
		t.Fatalf("dispatch pool during drain = %v, want [2]", got)
	}

	if err := f.FinishDrain(1); err != nil {
		t.Fatal(err)
	}
	want("after drain", 2)

	if f.OnlineCount() != 2 || f.DrainingCount() != 0 {
		t.Fatalf("online %d draining %d, want 2/0", f.OnlineCount(), f.DrainingCount())
	}
}

// TestUniformFarmStandbyEligibility: the homogeneous nil fast path
// ("every pair qualifies") must switch off while any pair is outside
// the online pool, and back on once the fleet is fully online.
func TestUniformFarmStandbyEligibility(t *testing.T) {
	cfg := DefaultFarmConfig(3)
	cfg.Standby = 1
	f := MustNewFarm(cfg)
	apps, err := denseSequence(1, 5).Instantiate(0)
	if err != nil {
		t.Fatal(err)
	}
	a := apps[0]
	if got := f.Eligible(a); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("eligible with standby pair = %v, want [0 1]", got)
	}
	if err := f.ActivatePair(2); err != nil {
		t.Fatal(err)
	}
	if got := f.Eligible(a); got != nil {
		t.Fatalf("fully-online uniform farm must take the nil fast path, got %v", got)
	}
}

// TestPairLifecycleErrors: transitions reject out-of-range indices and
// invalid state changes.
func TestPairLifecycleErrors(t *testing.T) {
	cfg := DefaultFarmConfig(2)
	cfg.Standby = 1
	f := MustNewFarm(cfg)
	if err := f.ActivatePair(0); err == nil {
		t.Error("activated an already-online pair")
	}
	if err := f.ActivatePair(9); err == nil {
		t.Error("activated an out-of-range pair")
	}
	if _, err := f.StartDrain(1); err == nil {
		t.Error("drained a standby pair")
	}
	if _, err := f.StartDrain(0); err == nil {
		t.Error("drained the last online pair")
	}
	if err := f.FinishDrain(0); err == nil {
		t.Error("finish-drained a pair that was not draining")
	}
	cfg = DefaultFarmConfig(2)
	cfg.Standby = 2
	if _, err := NewFarm(cfg); err == nil {
		t.Error("built a farm with every pair standby")
	}
}

// TestMidRunActivationRoutesToNewPair drives the cache-invalidation
// regression end to end for both a plain and a memoizing (affinity)
// dispatcher: a standby ZCU216 pair activates mid-run, and later
// arrivals — hostable only on ZCU216-class pairs — must start routing
// to it. With a stale eligibility cache (or a stale affinity memo) the
// new pair finishes the run with zero routed arrivals.
func TestMidRunActivationRoutesToNewPair(t *testing.T) {
	f := heteroLifecycleFarm(t, DispatchLeastLoaded)
	if err := f.Inject(bigOnlySequence(16)); err != nil {
		t.Fatal(err)
	}
	f.K.AtP(sim.Time(400*sim.Millisecond), sim.PriFarmControl, func() {
		if err := f.ActivatePair(2); err != nil {
			t.Error(err)
		}
	})
	f.Run()
	resp := merged(f)
	if resp.Apps != 16 {
		t.Fatalf("finished %d of 16", resp.Apps)
	}
	routed := f.Routed()
	if routed[0] != 0 {
		t.Fatalf("%d unhostable apps routed to the PYNQ pair", routed[0])
	}
	if routed[2] == 0 {
		t.Fatal("no arrivals routed to the pair activated mid-run (stale eligibility pool)")
	}
}

// TestAffinityMemoSurvivesActivation is the memoizing-dispatcher half
// of the regression: the affinity dispatcher's pool-derived state must
// be dropped when a standby pair activates. A LeNet wave warms and
// loads pair 0 while pair 1 sleeps; pair 1 activates; a second wave of
// a different spec (cold on both pairs, so cache score ties and load
// breaks the tie) must route to the idle new pair.
func TestAffinityMemoSurvivesActivation(t *testing.T) {
	cfg := DefaultFarmConfig(2)
	cfg.Standby = 1
	cfg.Dispatcher = DispatchAffinity
	f := MustNewFarm(cfg)
	if err := f.Inject(bigOnlySequence(12)); err != nil {
		t.Fatal(err)
	}
	second := &workload.Sequence{Name: "cold-spec", Condition: "Stress", Seed: 1}
	at := 600 * sim.Millisecond
	for i := 0; i < 6; i++ {
		second.Arrivals = append(second.Arrivals, workload.Arrival{Spec: "3DR", Batch: 5, At: at})
		at += 100 * sim.Millisecond
	}
	if err := f.Inject(second); err != nil {
		t.Fatal(err)
	}
	f.K.AtP(sim.Time(400*sim.Millisecond), sim.PriFarmControl, func() {
		if err := f.ActivatePair(1); err != nil {
			t.Error(err)
		}
	})
	f.Run()
	resp := merged(f)
	if resp.Apps != 18 {
		t.Fatalf("finished %d of 18", resp.Apps)
	}
	if routed := f.Routed(); routed[1] == 0 {
		t.Fatal("affinity dispatcher never routed to the pair activated mid-run (stale pool memo)")
	}
}

// TestDrainMigratesQueuedApps: draining a loaded pair moves its ready
// queue to the remaining online pair over the rack link; every app
// still finishes, and the farm counts the transfers.
func TestDrainMigratesQueuedApps(t *testing.T) {
	cfg := DefaultFarmConfig(2)
	f := MustNewFarm(cfg)
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 24
	if err := f.Inject(workload.Generate(p, 41)); err != nil {
		t.Fatal(err)
	}
	drained := -1
	f.K.AtP(sim.Time(1*sim.Second), sim.PriFarmControl, func() {
		moved, err := f.StartDrain(1)
		if err != nil {
			t.Error(err)
			return
		}
		drained = moved
	})
	sum := f.Run()
	resp := merged(f)
	if resp.Apps != 24 {
		t.Fatalf("finished %d of 24 after drain", resp.Apps)
	}
	if drained < 0 {
		t.Fatal("drain never ran")
	}
	if f.PairStateOf(1) != PairDraining {
		t.Fatalf("pair 1 in state %v, want draining (no one called FinishDrain)", f.PairStateOf(1))
	}
	if drained > 0 && sum.CrossMigratedApps == 0 && f.Pairs[1].requeued == 0 {
		t.Fatalf("%d apps extracted by the drain but neither migrated nor requeued", drained)
	}
}
