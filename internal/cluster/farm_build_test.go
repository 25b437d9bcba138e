package cluster

import "testing"

// maxAllocsPerPair bounds the heap allocations one switching pair costs
// to build inside a farm: its active board, engine and policy, the pair
// link and the pair's hooks. The spare board is built on first use, so
// it costs nothing here.
const maxAllocsPerPair = 24

// TestNewFarmAllocs pins farm construction cost per pair, sequential
// and sharded: a fleet builds every pair before its first arrival, so
// per-pair pieces a run may never touch must not be built eagerly.
func TestNewFarmAllocs(t *testing.T) {
	const pairs = 64
	for _, shards := range []int{1, 2} {
		cfg := DefaultFarmConfig(pairs)
		cfg.Shards = shards
		allocs := testing.AllocsPerRun(20, func() { MustNewFarm(cfg) })
		perPair := allocs / pairs
		t.Logf("shards=%d: %.0f allocs, %.2f per pair", shards, allocs, perPair)
		if perPair > maxAllocsPerPair {
			t.Errorf("shards=%d: building a %d-pair farm allocates %.2f times per pair, want <= %d",
				shards, pairs, perPair, maxAllocsPerPair)
		}
	}
}

// TestNewFarmRejectsNoPairs checks that a farm without pairs is a
// configuration error from NewFarm, like its shard and standby checks,
// while MustNewFarm still panics on it.
func TestNewFarmRejectsNoPairs(t *testing.T) {
	for _, pairs := range []int{0, -1} {
		f, err := NewFarm(DefaultFarmConfig(pairs))
		if err == nil || f != nil {
			t.Errorf("Pairs=%d: NewFarm = (%v, %v), want (nil, error)", pairs, f, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewFarm with no pairs did not panic")
		}
	}()
	MustNewFarm(DefaultFarmConfig(0))
}
