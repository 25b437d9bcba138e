package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"versaslot/internal/fabric"
	"versaslot/internal/sim"
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

func runShardFarm(t *testing.T, cfg FarmConfig, apps int, seed uint64) Summary {
	t.Helper()
	f := MustNewFarm(cfg)
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = apps
	if err := f.Inject(workload.Generate(p, seed)); err != nil {
		t.Fatal(err)
	}
	sum := f.Run()
	if f.UnfinishedCount() != 0 {
		t.Fatal("unfinished apps remain")
	}
	return sum
}

// TestShardedMatchesSequential is the sharded executor's acceptance
// bar: for every dispatcher, on uniform and heterogeneous farms, at
// 4 and 8 shards, a sharded run must produce a Summary deeply equal to
// the sequential run — same response samples, same rebalancer
// migrations, same D_switch traces. Run under -race this also
// exercises the lookahead coordinator's happens-before edges.
func TestShardedMatchesSequential(t *testing.T) {
	for _, hetero := range []bool{false, true} {
		for _, name := range []string{DispatchLeastLoaded, DispatchRoundRobin, DispatchPowerOfTwo, DispatchAffinity} {
			label := name
			if hetero {
				label += "/hetero"
			}
			t.Run(label, func(t *testing.T) {
				cfg := DefaultFarmConfig(6)
				cfg.Dispatcher = name
				cfg.RebalanceEvery = 2 * sim.Second
				if hetero {
					cfg.PairPlatforms = heteroPlatforms(cfg.Pairs)
				}
				seqSum := runShardFarm(t, cfg, 48, 4242)
				for _, shards := range []int{4, 8} {
					cfg.Shards = shards
					shSum := runShardFarm(t, cfg, 48, 4242)
					if !reflect.DeepEqual(seqSum, shSum) {
						t.Errorf("%d-shard summary diverged from sequential:\nsequential: apps=%d meanRT=%v p99=%v cross=%d switches=%d\nsharded:    apps=%d meanRT=%v p99=%v cross=%d switches=%d",
							shards,
							seqSum.Apps, seqSum.MeanRT, seqSum.P99, seqSum.CrossSwitches, seqSum.Switches,
							shSum.Apps, shSum.MeanRT, shSum.P99, shSum.CrossSwitches, shSum.Switches)
					}
				}
			})
		}
	}
}

// TestShardedShardCounts sweeps shard counts (including clamping past
// the pair count): every width must reproduce the sequential result.
func TestShardedShardCounts(t *testing.T) {
	cfg := DefaultFarmConfig(5)
	cfg.RebalanceEvery = 2 * sim.Second
	want := runShardFarm(t, cfg, 30, 99)
	for _, shards := range []int{2, 3, 5, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := cfg
			c.Shards = shards
			if got := runShardFarm(t, c, 30, 99); !reflect.DeepEqual(want, got) {
				t.Errorf("shards=%d diverged from sequential (apps %d vs %d, meanRT %v vs %v)",
					shards, got.Apps, want.Apps, got.MeanRT, want.MeanRT)
			}
		})
	}
}

// TestShardEpochZeroAlloc pins the lookahead coordinator's steady
// state: with the workers parked and no pair holding events before the
// next control instant, executing a coordinator instant allocates
// nothing — the need/inline/touched scratch is preallocated and idle
// shards cost a single horizon-array read each.
func TestShardEpochZeroAlloc(t *testing.T) {
	cfg := DefaultFarmConfig(8)
	cfg.Shards = 4
	f := MustNewFarm(cfg)
	const instants = 400
	for i := 1; i <= instants; i++ {
		f.K.AtP(sim.Time(i)*sim.Time(sim.Millisecond), sim.PriFarmControl, func() {})
	}
	c := f.newShardCoord()
	// Warm: let the workers burn their spin budgets and park, and the
	// kernel freelist reach steady state.
	for i := 0; i < 100; i++ {
		if !c.step() {
			t.Fatal("control queue drained during warmup")
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if !c.step() {
			t.Fatal("control queue drained mid-measurement")
		}
	})
	for c.step() {
	}
	c.finish()
	if allocs != 0 {
		t.Errorf("warm lookahead epoch allocates %.1f objects, want 0", allocs)
	}
}

// TestAutoShards pins the shard auto-selection table, including the
// clamp that keeps the measured pairs=128/shards=8 regression out of
// auto mode and the sequential fallback for small farms and single-CPU
// hosts.
func TestAutoShards(t *testing.T) {
	cases := []struct {
		pairs, procs, want int
	}{
		{1024, 8, 8},  // big farm, enough CPUs: full width
		{1024, 16, 8}, // width capped at autoShardMax
		{128, 8, 4},   // 128/8 = 16 pairs per shard is too thin: back off
		{128, 4, 4},   // 128/4 = 32 pairs per shard is exactly enough
		{64, 8, 2},    // backs off until pairs/shards >= 32
		{63, 8, 1},    // below the minimum farm size: sequential
		{1024, 1, 1},  // single CPU: sequential
		{0, 8, 1},     // degenerate
	}
	for _, tc := range cases {
		if got := autoShards(tc.pairs, tc.procs); got != tc.want {
			t.Errorf("autoShards(%d pairs, %d procs) = %d, want %d", tc.pairs, tc.procs, got, tc.want)
		}
	}
}

// TestAutoShardResolution covers Shards == 0 end to end: small farms
// resolve to the sequential executor, large farms to the same width
// the selection table picks for this host.
func TestAutoShardResolution(t *testing.T) {
	small := MustNewFarm(DefaultFarmConfig(4))
	if got := small.ShardCount(); got != 1 {
		t.Errorf("4-pair auto farm resolved to %d shards, want 1", got)
	}

	big := MustNewFarm(DefaultFarmConfig(128))
	if want := autoShards(128, runtime.GOMAXPROCS(0)); big.ShardCount() != want {
		t.Errorf("128-pair auto farm resolved to %d shards, want %d", big.ShardCount(), want)
	}
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
