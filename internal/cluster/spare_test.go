package cluster

import (
	"reflect"
	"testing"

	"versaslot/internal/migrate"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// spareRun runs a farm on a generated workload and returns it with its
// summary.
func spareRun(t *testing.T, cfg FarmConfig, cond workload.Condition, apps int, seed uint64) (*Farm, Summary) {
	t.Helper()
	f := MustNewFarm(cfg)
	p := workload.DefaultGenParams(cond)
	p.Apps = apps
	if err := f.Inject(workload.Generate(p, seed)); err != nil {
		t.Fatal(err)
	}
	return f, f.Run()
}

// usedSpare reports whether a pair's D_switch loop ever prewarmed or
// switched: the only pair-internal reasons to build its spare.
func usedSpare(p *Cluster) bool {
	for _, tp := range p.Trace {
		if tp.Decision == migrate.Prewarm || tp.Decision == migrate.Switch {
			return true
		}
	}
	return false
}

// TestShardedSpareBuiltOnFirstUse checks that a pair builds its spare
// board exactly when it prewarms or switches, on shard workers as on
// the sequential path, and that building on first use leaves sharded
// and sequential runs identical.
func TestShardedSpareBuiltOnFirstUse(t *testing.T) {
	check := func(t *testing.T, label string, cfg FarmConfig, cond workload.Condition, apps int, seed uint64) []Summary {
		t.Helper()
		var sums []Summary
		for _, shards := range []int{1, 2} {
			cfg.Shards = shards
			f, sum := spareRun(t, cfg, cond, apps, seed)
			built := 0
			for i, p := range f.Pairs {
				spare := p.Built(cfg.Pair.StartMode.Other()) != nil
				if spare {
					built++
				}
				if want := usedSpare(p); spare != want {
					t.Errorf("%s shards=%d: pair %d spare built=%v, but prewarmed or switched=%v", label, shards, i, spare, want)
				}
			}
			t.Logf("%s shards=%d: %d of %d spares built, %d switches", label, shards, built, len(f.Pairs), sum.Switches)
			sums = append(sums, sum)
		}
		if sums[0].Apps != apps || !reflect.DeepEqual(sums[0], sums[1]) {
			t.Errorf("%s: sharded summary diverged from sequential (apps %d vs %d of %d)", label, sums[1].Apps, sums[0].Apps, apps)
		}
		return sums
	}
	// A wide least-loaded farm with a couple of apps per pair never
	// reaches a D_switch threshold: no spare is ever needed.
	fleet := DefaultFarmConfig(64)
	fleet.RebalanceEvery = 2 * sim.Second
	sums := check(t, "fleet", fleet, workload.Stress, 128, 17)
	if n := len(sums[0].Trace); n == 0 {
		t.Error("fleet: no D_switch evaluation ran; the input does not exercise the pair loop")
	}
	// A small real-time farm switches on every seed here, so some
	// spares are built mid-run — inside shard workers when sharded.
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultFarmConfig(4)
		cfg.Pair.Seed = seed
		if sums := check(t, "real-time", cfg, workload.Realtime, 48, seed); sums[0].Switches == 0 {
			t.Errorf("real-time seed %d: no pair switched; the input does not exercise a spare", seed)
		}
	}
}

// TestSpareBuildSubmitsNoPass checks how a spare is built on first use:
// frozen, with the pair's hooks and then the build hook, and without
// submitting a scheduler pass to the kernel.
func TestSpareBuildSubmitsNoPass(t *testing.T) {
	cl := onePair(t, DefaultConfig()).Pairs[0]
	var hooked []int
	cl.SetBuildHook(func(e *sched.Engine) { hooked = append(hooked, e.Board.ID) })
	if cl.Built(migrate.Boost) != nil {
		t.Fatal("the pair built its spare at construction")
	}
	pending := cl.K.Pending()
	spare := cl.Engine(migrate.Boost)
	if n := cl.K.Pending() - pending; n != 0 {
		t.Errorf("building the spare scheduled %d events, want 0", n)
	}
	if !spare.Frozen() || spare.OnQueueUpdate == nil || spare.OnAppFinished == nil || spare.OnAppCrashed == nil {
		t.Errorf("spare frozen=%v, hooks queue=%v finish=%v crash=%v; want frozen with every pair hook",
			spare.Frozen(), spare.OnQueueUpdate != nil, spare.OnAppFinished != nil, spare.OnAppCrashed != nil)
	}
	if want := []int{cl.BoardID(migrate.Base), cl.BoardID(migrate.Boost)}; !reflect.DeepEqual(hooked, want) || spare.Board.ID != want[1] {
		t.Errorf("build hook saw boards %v, spare is board %d; want %v", hooked, spare.Board.ID, want)
	}
	if cl.Engine(migrate.Boost) != spare || cl.Built(migrate.Boost) != spare {
		t.Error("a second Engine call rebuilt the spare")
	}
}
