package cluster

import (
	"runtime"
	"testing"
)

// Farm construction bounds. A farm makes its pair records from one
// slice per kind and builds no board until work reaches a pair, so its
// allocation count does not grow with its pair count: a 1024-pair farm
// may make at most maxExtraAllocs more than a 64-pair one (the slack
// covers allocator size classes and the process-wide name tables
// filling in). Bytes do grow with the pairs; maxBytesPerPair pins them
// at 1024 pairs, where a pair is its record and load counters.
const (
	maxExtraAllocs  = 8
	maxBytesPerPair = 967
)

// TestNewFarmAllocs pins farm construction cost: a fleet makes every pair record before its first arrival,
// so the boards a run may never touch must not be built eagerly, and
// the records must not cost an allocation each.
func TestNewFarmAllocs(t *testing.T) {
	small, _ := farmBuildCost(64)
	large, bytes := farmBuildCost(1024)
	perPair := bytes / 1024
	t.Logf("64 pairs %.0f allocs, 1024 pairs %.0f allocs, %.0f B per pair", small, large, perPair)
	if extra := large - small; extra > maxExtraAllocs {
		t.Errorf("a 1024-pair farm makes %.0f more allocations than a 64-pair one, want <= %d", extra, maxExtraAllocs)
	}
	if perPair > maxBytesPerPair {
		t.Errorf("a 1024-pair farm allocates %.0f B per pair, want <= %d", perPair, maxBytesPerPair)
	}
}

// farmBuildCost returns the mean allocations and bytes of building a
// farm of the given size, after one build that interns the pairs' link
// and core names.
func farmBuildCost(pairs int) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := DefaultFarmConfig(pairs)
	MustNewFarm(cfg)
	const runs = 10
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		MustNewFarm(cfg)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / runs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
}

// TestNewFarmShards checks that the deprecated Shards field accepts
// only the values that name the one executor.
func TestNewFarmShards(t *testing.T) {
	for _, shards := range []int{-1, 0, 1, 2, 8} {
		cfg := DefaultFarmConfig(4)
		cfg.Shards = shards
		f, err := NewFarm(cfg)
		if ok := shards == 0 || shards == 1; ok != (err == nil) {
			t.Errorf("Shards=%d: NewFarm error %v, want accepted=%v", shards, err, ok)
		}
		if err == nil && f.ShardCount() != 1 {
			t.Errorf("Shards=%d: ShardCount %d, want 1", shards, f.ShardCount())
		}
	}
}

// TestNewFarmRejectsNoPairs checks that a farm without pairs is a
// configuration error from NewFarm, like its standby check,
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
