package main

import (
	"fmt"

	"versaslot"
	"versaslot/internal/fault"
	"versaslot/internal/orchestrator"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// workloadDef is one benchmark workload: the scenarios one timed
// operation runs, generated from the benchmark seed. The simulated
// arrivals inside every scenario are open-loop schedules; the
// benchmark itself is a closed loop of one client that starts the
// next operation when the previous one returned.
type workloadDef struct {
	name string
	// sweep marks a workload whose operation is one RunMany call over
	// all its scenarios (the paper's evaluation matrix); otherwise an
	// operation is one Run of its single scenario.
	sweep bool
	// shardCheck asks for the sharded Result to be compared with a
	// Shards: 1 run of the same scenario.
	shardCheck bool
	scenarios  func(seed uint64) []versaslot.Scenario
}

// defaultSeed is the seed whose Results are pinned in pinnedDigests.
const defaultSeed = 1

var workloads = []*workloadDef{
	{name: "paper-sweep", sweep: true, scenarios: paperSweep},
	{name: "fleet-1024", shardCheck: true, scenarios: fleet1024},
	{name: "tenant-chaos", scenarios: tenantChaos},
}

func lookupWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// derive maps the benchmark seed and a label to a scenario seed with
// splitmix64, so each workload's inputs are a pure function of the
// seed and no two workloads share a scenario seed.
func derive(seed uint64, label string) uint64 {
	x := seed
	for _, c := range []byte(label) {
		x = x*1099511628211 ^ uint64(c)
	}
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// sweepSeeds is the number of workload sequences per (policy,
// condition) cell, as in the paper's ten sequences per condition.
const sweepSeeds = 10

// paperSweep is the paper's Section IV matrix: 20-app single-board
// workloads over every registered policy and congestion condition.
func paperSweep(seed uint64) []versaslot.Scenario {
	seeds := make([]uint64, sweepSeeds)
	for i := range seeds {
		seeds[i] = derive(seed, fmt.Sprintf("paper-sweep/%d", i))
	}
	return versaslot.Sweep{
		Base:       versaslot.Scenario{Topology: versaslot.TopologySingle, Apps: 20},
		Policies:   versaslot.Policies(),
		Conditions: versaslot.Conditions(),
		Seeds:      seeds,
	}.Scenarios()
}

// fleet1024 is a 1024-pair homogeneous ZCU216 farm under the stress
// condition with two apps per pair: its cost is building the boards,
// dispatch over the load counters, the sharded coordinator and the
// exact merge of 2048 collectors, not deep per-board queues.
func fleet1024(seed uint64) []versaslot.Scenario {
	return []versaslot.Scenario{{
		Name:           "fleet-1024",
		Topology:       versaslot.TopologyFarm,
		Condition:      "stress",
		Apps:           2048,
		Seed:           derive(seed, "fleet-1024"),
		Pairs:          1024,
		Dispatcher:     "least-loaded",
		RebalanceEvery: 2 * sim.Second,
	}}
}

// tenantChaos is an autoscaled 1..8-pair farm with two quota'd MMPP
// tenants (one throttled, one rejecting over quota) under board
// failures and flaky partial reconfiguration.
func tenantChaos(seed uint64) []versaslot.Scenario {
	return []versaslot.Scenario{{
		Name:      "tenant-chaos",
		Topology:  versaslot.TopologyFarm,
		Condition: "stress",
		Seed:      derive(seed, "tenant-chaos"),
		Pairs:     2,
		Tenants: []orchestrator.TenantSpec{
			{Name: "batch", Apps: 1200, Quota: 12, Priority: 5, SLO: 4 * sim.Second,
				Arrival: &workload.ArrivalSpec{Process: "mmpp"}},
			{Name: "interactive", Apps: 800, Quota: 6, Priority: 1, SLO: 3 * sim.Second,
				OverQuota: orchestrator.OverQuotaReject, Arrival: &workload.ArrivalSpec{Process: "mmpp"}},
		},
		Autoscale: &orchestrator.AutoscaleSpec{Min: 1, Max: 8, Every: 500 * sim.Millisecond,
			Window: 2, UpLoad: 4, DownLoad: 1},
		Faults: &fault.Spec{Injectors: []fault.InjectorSpec{
			{Kind: "board-fail", MTBF: 15 * sim.Second, MTTR: 2 * sim.Second},
			{Kind: "pr-flaky", Rate: 0.1, MaxRetries: 3},
		}},
	}}
}
