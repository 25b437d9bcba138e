package versaslot_test

import (
	"bytes"
	"testing"

	"versaslot"
	"versaslot/internal/cluster"
	"versaslot/internal/fabric"
	"versaslot/internal/fault"
	"versaslot/internal/orchestrator"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// matrixTenants builds the shared tenant block for the orchestrated
// determinism matrix (multi-tenant admission plus autoscaling over
// several dispatchers and one heterogeneous platform mix; CI runs
// this file under -race).
func matrixTenants() []orchestrator.TenantSpec {
	return []orchestrator.TenantSpec{
		{Name: "batch", Apps: 18, Quota: 4, Priority: 5, SLO: 80 * sim.Second},
		{Name: "interactive", Apps: 12, Quota: 3, Priority: 1, SLO: 40 * sim.Second},
		{Name: "spiky", Apps: 10, Quota: 2, OverQuota: orchestrator.OverQuotaReject},
	}
}

func orchestratedScenarios() []versaslot.Scenario {
	autoscale := &orchestrator.AutoscaleSpec{
		Min: 1, Max: 3,
		Every:  500 * sim.Millisecond,
		Window: 2,
		UpLoad: 4, DownLoad: 1,
	}
	base := versaslot.Scenario{
		Topology:  versaslot.TopologyFarm,
		Condition: "stress",
		Pairs:     1,
		Seed:      13,
		Tenants:   matrixTenants(),
		Autoscale: autoscale,
	}
	leastLoaded := base
	leastLoaded.Name = "tenants-least-loaded"
	leastLoaded.Dispatcher = "least-loaded"
	affinity := base
	affinity.Name = "tenants-affinity"
	affinity.Dispatcher = "affinity"
	p2c := base
	p2c.Name = "tenants-p2c"
	p2c.Dispatcher = "power-of-two"
	hetero := base
	hetero.Name = "tenants-hetero"
	hetero.Dispatcher = "least-loaded"
	hetero.Pairs = 2
	hetero.PairPlatforms = []cluster.PairPlatforms{
		{},
		{Base: fabric.U250Quad, Boost: fabric.U250Quad},
		{Base: fabric.U250Quad, Boost: fabric.U250Quad},
	}
	return []versaslot.Scenario{leastLoaded, affinity, p2c, hetero}
}

// TestOrchestratedDeterminismMatrix: every orchestrated scenario must
// produce byte-identical results solo and in a RunMany worker pool.
// Admission, throttle releases, and every autoscale action ride the
// farm-control priority, so neither mode may reorder them.
func TestOrchestratedDeterminismMatrix(t *testing.T) {
	scenarios := orchestratedScenarios()
	sequential := make([][]byte, len(scenarios))
	for i, sc := range scenarios {
		res, err := versaslot.Run(sc)
		if err != nil {
			t.Fatalf("sequential %s: %v", sc.Name, err)
		}
		sequential[i] = resultJSON(t, res)
		checkTenantLedger(t, sc.Name+"/sequential", res)
	}
	parallel, err := versaslot.RunMany(scenarios, 4)
	if err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	for i, res := range parallel {
		if got := resultJSON(t, res); !bytes.Equal(sequential[i], got) {
			t.Errorf("%s: RunMany result differs from sequential:\n%s\n%s", scenarios[i].Name, sequential[i], got)
		}
	}
}

// checkTenantLedger asserts the facade-level invariants on a
// completed orchestrated result: the per-tenant ledger reconciles to
// zero remainder and the autoscaler left no pair mid-drain.
func checkTenantLedger(t *testing.T, label string, res *versaslot.Result) {
	t.Helper()
	if len(res.Tenants) == 0 {
		t.Fatalf("%s: no tenant stats", label)
	}
	finished := 0
	for _, st := range res.Tenants {
		if st.Submitted != st.Admitted+st.Rejected+st.Queued {
			t.Errorf("%s: tenant %s: submitted %d != admitted %d + rejected %d + queued %d",
				label, st.Tenant, st.Submitted, st.Admitted, st.Rejected, st.Queued)
		}
		if st.Admitted != st.Finished+st.InFlight {
			t.Errorf("%s: tenant %s: admitted %d != finished %d + in-flight %d",
				label, st.Tenant, st.Admitted, st.Finished, st.InFlight)
		}
		if st.Queued != 0 || st.InFlight != 0 {
			t.Errorf("%s: tenant %s: completed run left %d queued, %d in flight",
				label, st.Tenant, st.Queued, st.InFlight)
		}
		if st.SLO > 0 && st.Finished > 0 && (st.SLOAttainment < 0 || st.SLOAttainment > 1) {
			t.Errorf("%s: tenant %s: SLO attainment %f outside [0, 1]", label, st.Tenant, st.SLOAttainment)
		}
		finished += st.Finished
	}
	if finished != res.Summary.Apps {
		t.Errorf("%s: tenants finished %d, farm summary reports %d", label, finished, res.Summary.Apps)
	}
	if res.Autoscale == nil {
		t.Fatalf("%s: no autoscale stats", label)
	}
}

// TestTenantSeedIsolation: renaming one tenant must not perturb
// another tenant's arrivals — per-tenant workloads are keyed by
// (scenario seed, tenant name), not by position.
func TestTenantSeedIsolation(t *testing.T) {
	base := versaslot.Scenario{
		Name:      "seed-isolation",
		Topology:  versaslot.TopologyFarm,
		Condition: "stress",
		Pairs:     2,
		Seed:      31,
		Tenants: []orchestrator.TenantSpec{
			{Name: "stable", Apps: 10},
			{Name: "other", Apps: 10},
		},
	}
	first, err := versaslot.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	renamed := base
	renamed.Tenants = []orchestrator.TenantSpec{
		{Name: "stable", Apps: 10},
		{Name: "renamed", Apps: 10},
	}
	second, err := versaslot.Run(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if first.Tenants[0].MeanRT == 0 || second.Tenants[0].MeanRT == 0 {
		t.Fatal("stable tenant finished nothing")
	}
	// The farms interleave differently (the other tenant's arrivals
	// changed), so response times may shift; but the stable tenant's
	// submission count and the renamed tenant's divergence must hold.
	if first.Tenants[0].Submitted != second.Tenants[0].Submitted {
		t.Errorf("stable tenant submitted %d then %d", first.Tenants[0].Submitted, second.Tenants[0].Submitted)
	}
	if first.Tenants[1].Tenant == second.Tenants[1].Tenant {
		t.Error("rename did not take")
	}
}

// TestTenantValidation: the scenario surface rejects tenant/autoscale
// misuses before anything runs.
func TestTenantValidation(t *testing.T) {
	cases := []struct {
		name string
		sc   versaslot.Scenario
	}{
		{"tenants on cluster", versaslot.Scenario{
			Topology: versaslot.TopologyCluster,
			Tenants:  []orchestrator.TenantSpec{{Name: "a"}},
		}},
		{"autoscale on single", versaslot.Scenario{
			Autoscale: &orchestrator.AutoscaleSpec{Max: 2},
		}},
		{"tenants with workload file", versaslot.Scenario{
			Topology:     versaslot.TopologyFarm,
			WorkloadFile: "x.json",
			Tenants:      []orchestrator.TenantSpec{{Name: "a"}},
		}},
		{"tenants with poisson", versaslot.Scenario{
			Topology: versaslot.TopologyFarm,
			Poisson:  true,
			Tenants:  []orchestrator.TenantSpec{{Name: "a"}},
		}},
		{"duplicate tenants", versaslot.Scenario{
			Topology: versaslot.TopologyFarm,
			Tenants:  []orchestrator.TenantSpec{{Name: "a"}, {Name: "a"}},
		}},
		{"pairs above autoscale max", versaslot.Scenario{
			Topology:  versaslot.TopologyFarm,
			Pairs:     4,
			Autoscale: &orchestrator.AutoscaleSpec{Max: 3},
		}},
		{"pairs below autoscale min", versaslot.Scenario{
			Topology:  versaslot.TopologyFarm,
			Pairs:     1,
			Autoscale: &orchestrator.AutoscaleSpec{Min: 2, Max: 3},
		}},
		{"bad tenant condition", versaslot.Scenario{
			Topology: versaslot.TopologyFarm,
			Tenants:  []orchestrator.TenantSpec{{Name: "a", Condition: "nope"}},
		}},
	}
	for _, tc := range cases {
		if err := tc.sc.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestTenantChaosAllocsPerApp bounds the heap allocations of a run
// shaped like perfbench's tenant-chaos workload — two quota'd MMPP
// tenants on an autoscaled farm under board failures and flaky partial
// reconfiguration — per application. The fault, retry, pre-warm and
// admission paths allocate nothing in steady state, so what is left is
// each app's stage plan and the run's fixed setup, about 7.4 per app
// at 500 apps.
func TestTenantChaosAllocsPerApp(t *testing.T) {
	sc := versaslot.Scenario{
		Topology:  versaslot.TopologyFarm,
		Condition: "stress",
		Seed:      29,
		Pairs:     2,
		Tenants: []orchestrator.TenantSpec{
			{Name: "batch", Apps: 300, Quota: 12, Priority: 5, SLO: 4 * sim.Second,
				Arrival: &workload.ArrivalSpec{Process: "mmpp"}},
			{Name: "interactive", Apps: 200, Quota: 6, Priority: 1, SLO: 3 * sim.Second,
				OverQuota: orchestrator.OverQuotaReject, Arrival: &workload.ArrivalSpec{Process: "mmpp"}},
		},
		Autoscale: &orchestrator.AutoscaleSpec{Min: 1, Max: 8, Every: 500 * sim.Millisecond,
			Window: 2, UpLoad: 4, DownLoad: 1},
		Faults: &fault.Spec{Injectors: []fault.InjectorSpec{
			{Kind: "board-fail", MTBF: 15 * sim.Second, MTTR: 2 * sim.Second},
			{Kind: "pr-flaky", Rate: 0.1, MaxRetries: 3},
		}},
	}
	var res *versaslot.Result
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if res, err = versaslot.Run(sc); err != nil {
			t.Fatal(err)
		}
	})
	if res.Summary.PRRetries == 0 || res.Summary.FailedApps == 0 {
		t.Fatalf("run retried %d PRs and crash-restarted %d apps, want both > 0", res.Summary.PRRetries, res.Summary.FailedApps)
	}
	const ceiling = 10.0
	if perApp := allocs / 500; perApp > ceiling {
		t.Errorf("tenant-chaos-shaped run allocates %.2f times per app (%.0f in all), want <= %.0f", perApp, allocs, ceiling)
	}
}
