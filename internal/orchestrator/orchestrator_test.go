package orchestrator_test

import (
	"testing"

	"versaslot/internal/cluster"
	"versaslot/internal/metrics"
	"versaslot/internal/orchestrator"
	"versaslot/internal/rng"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// tenantSeq generates one tenant's workload, seeded the way the
// scenario facade seeds it.
func tenantSeq(cond workload.Condition, apps int, seed uint64, name string) *workload.Sequence {
	p := workload.DefaultGenParams(cond)
	p.Apps = apps
	seq := workload.Generate(p, rng.Derive(seed, "tenant/"+name))
	seq.Name = name
	return seq
}

func mustOrchestrate(t *testing.T, f *cluster.Farm, cfg orchestrator.Config) *orchestrator.Orchestrator {
	t.Helper()
	o, err := orchestrator.New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// checkLedger asserts the admission ledger reconciles for every
// tenant, and — for a completed run — that nothing is left queued or
// in flight.
func checkLedger(t *testing.T, stats []orchestrator.TenantStat, completed bool) {
	t.Helper()
	for _, st := range stats {
		if st.Submitted != st.Admitted+st.Rejected+st.Queued {
			t.Errorf("tenant %s: submitted %d != admitted %d + rejected %d + queued %d",
				st.Tenant, st.Submitted, st.Admitted, st.Rejected, st.Queued)
		}
		if st.Admitted != st.Finished+st.InFlight {
			t.Errorf("tenant %s: admitted %d != finished %d + in-flight %d",
				st.Tenant, st.Admitted, st.Finished, st.InFlight)
		}
		if completed && (st.Queued != 0 || st.InFlight != 0) {
			t.Errorf("tenant %s: run completed with %d queued, %d in flight",
				st.Tenant, st.Queued, st.InFlight)
		}
	}
}

// TestQuotaNeverExceeded: at every admission instant, the admitting
// tenant's in-flight count stays within its quota — observed through
// the OnAdmit hook, which fires after the ledger bump, for every
// single admission of the run.
func TestQuotaNeverExceeded(t *testing.T) {
	f := cluster.MustNewFarm(cluster.DefaultFarmConfig(2))
	quotas := []int{3, 2}
	o := mustOrchestrate(t, f, orchestrator.Config{
		Tenants: []orchestrator.TenantSpec{
			{Name: "batch", Quota: quotas[0]},
			{Name: "interactive", Quota: quotas[1], Priority: -1},
		},
	})
	admissions := 0
	o.OnAdmit = func(tenant, inflight int) {
		admissions++
		if q := quotas[tenant]; inflight > q {
			t.Fatalf("tenant %d at %d in flight, quota %d", tenant, inflight, q)
		}
	}
	seqs := []*workload.Sequence{
		tenantSeq(workload.Stress, 24, 7, "batch"),
		tenantSeq(workload.Stress, 16, 7, "interactive"),
	}
	if err := o.InjectTenants(seqs); err != nil {
		t.Fatal(err)
	}
	o.Start()
	f.Run()
	resp := merged(f)
	if admissions != 40 {
		t.Fatalf("admitted %d of 40 under throttle policy", admissions)
	}
	if resp.Apps != 40 {
		t.Fatalf("finished %d of 40", resp.Apps)
	}
	stats := o.TenantStats()
	checkLedger(t, stats, true)
	for _, st := range stats {
		if st.Throttled == 0 {
			t.Errorf("tenant %s: stress arrivals against quota %d never throttled", st.Tenant, st.Quota)
		}
	}
}

// TestRejectPolicyDropsOverQuota: a reject-policy tenant sheds load at
// the door, the drops show up in the ledger, and the farm never sees
// them (its own app ledger counts only admissions).
func TestRejectPolicyDropsOverQuota(t *testing.T) {
	f := cluster.MustNewFarm(cluster.DefaultFarmConfig(2))
	o := mustOrchestrate(t, f, orchestrator.Config{
		Tenants: []orchestrator.TenantSpec{
			{Name: "spiky", Quota: 1, OverQuota: orchestrator.OverQuotaReject},
		},
	})
	if err := o.InjectTenants([]*workload.Sequence{
		tenantSeq(workload.Stress, 30, 11, "spiky"),
	}); err != nil {
		t.Fatal(err)
	}
	o.Start()
	f.Run()
	resp := merged(f)
	st := o.TenantStats()[0]
	checkLedger(t, o.TenantStats(), true)
	if st.Rejected == 0 {
		t.Fatal("stress arrivals against quota 1 never rejected")
	}
	if st.Throttled != 0 {
		t.Fatalf("reject policy throttled %d apps", st.Throttled)
	}
	if resp.Apps != st.Admitted {
		t.Fatalf("farm finished %d apps, ledger admitted %d", resp.Apps, st.Admitted)
	}
	if st.Submitted != 30 {
		t.Fatalf("submitted %d of 30", st.Submitted)
	}
}

// TestPriorityReleaseOrder: when both tenants have queued work and one
// release slot opens per pump tick, the lower-priority-value tenant
// drains first. Observed as: the high-priority tenant's last admission
// never comes after the low-priority tenant still has queued work that
// was admittable. A coarse but deterministic check: with equal queues
// and one shared quota bottleneck, the high-priority tenant finishes
// admitting no later than the low-priority one.
func TestPriorityReleaseOrder(t *testing.T) {
	f := cluster.MustNewFarm(cluster.DefaultFarmConfig(2))
	o := mustOrchestrate(t, f, orchestrator.Config{
		Tenants: []orchestrator.TenantSpec{
			{Name: "bulk", Quota: 2, Priority: 5},
			{Name: "urgent", Quota: 2, Priority: 1},
		},
	})
	var order []int
	o.OnAdmit = func(tenant, _ int) { order = append(order, tenant) }
	if err := o.InjectTenants([]*workload.Sequence{
		tenantSeq(workload.Stress, 12, 3, "bulk"),
		tenantSeq(workload.Stress, 12, 3, "urgent"),
	}); err != nil {
		t.Fatal(err)
	}
	o.Start()
	f.Run()
	checkLedger(t, o.TenantStats(), true)
	if len(order) != 24 {
		t.Fatalf("admitted %d of 24", len(order))
	}
	last := make(map[int]int)
	for i, tenant := range order {
		last[tenant] = i
	}
	// Both tenants see identical arrival pressure and quotas; the
	// urgent tenant must not be the one holding the final admission.
	if last[1] > last[0] {
		t.Errorf("urgent tenant (priority 1) admitted last at %d, after bulk's last at %d", last[1], last[0])
	}
}

// TestAutoscaleGrowsAndDrains: sustained pressure commissions standby
// pairs; the post-burst lull drains them back; no application is lost
// across either transition and the farm ends back at a small online
// fleet with an empty draining set.
func TestAutoscaleGrowsAndDrains(t *testing.T) {
	cfg := cluster.DefaultFarmConfig(4)
	cfg.Standby = 3
	f := cluster.MustNewFarm(cfg)
	o := mustOrchestrate(t, f, orchestrator.Config{
		Tenants: []orchestrator.TenantSpec{{Name: "burst"}},
		Autoscale: &orchestrator.AutoscaleSpec{
			Min: 1, Max: 4,
			Every:  200 * sim.Millisecond,
			Window: 2,
			UpLoad: 4, DownLoad: 1,
		},
	})
	if err := o.InjectTenants([]*workload.Sequence{
		tenantSeq(workload.Stress, 60, 17, "burst"),
	}); err != nil {
		t.Fatal(err)
	}
	o.Start()
	f.Run()
	resp := merged(f)
	if resp.Apps != 60 {
		t.Fatalf("finished %d of 60", resp.Apps)
	}
	checkLedger(t, o.TenantStats(), true)
	as := o.AutoscaleStats()
	if as == nil {
		t.Fatal("autoscale stats missing")
	}
	if as.ScaleUps == 0 {
		t.Fatal("stress burst on one online pair never scaled up")
	}
	if as.PeakOnline <= 1 {
		t.Fatalf("peak online %d despite %d scale-ups", as.PeakOnline, as.ScaleUps)
	}
	if as.ScaleDowns == 0 {
		t.Fatal("post-burst lull never drained a pair")
	}
	if f.DrainingCount() != 0 {
		t.Fatalf("%d pairs still draining at end of run", f.DrainingCount())
	}
	if as.FinalOnline != f.OnlineCount() {
		t.Fatalf("stats final online %d, farm reports %d", as.FinalOnline, f.OnlineCount())
	}
	for _, ev := range as.Events {
		if ev.Online < 1 || ev.Online > 4 {
			t.Fatalf("event %+v left online count outside [1, 4]", ev)
		}
	}
}

// TestAutoscaleWithoutTenants: the autoscaler runs over a plain
// injected workload too — no admission layer, pure elasticity.
func TestAutoscaleWithoutTenants(t *testing.T) {
	cfg := cluster.DefaultFarmConfig(3)
	cfg.Standby = 2
	f := cluster.MustNewFarm(cfg)
	o := mustOrchestrate(t, f, orchestrator.Config{
		Autoscale: &orchestrator.AutoscaleSpec{
			Min: 1, Max: 3,
			Every:  200 * sim.Millisecond,
			Window: 2,
			UpLoad: 4, DownLoad: 1,
		},
	})
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 40
	if err := f.Inject(workload.Generate(p, 29)); err != nil {
		t.Fatal(err)
	}
	o.Start()
	f.Run()
	resp := merged(f)
	if resp.Apps != 40 {
		t.Fatalf("finished %d of 40", resp.Apps)
	}
	if o.TenantStats() != nil {
		t.Fatal("tenant stats for a tenant-less run")
	}
	if o.AutoscaleStats().ScaleUps == 0 {
		t.Fatal("stress load on one online pair never scaled up")
	}
}

// TestValidation: the config surface rejects the obvious misuses.
func TestValidation(t *testing.T) {
	f := cluster.MustNewFarm(cluster.DefaultFarmConfig(2))
	cases := []struct {
		name string
		cfg  orchestrator.Config
	}{
		{"duplicate tenant", orchestrator.Config{Tenants: []orchestrator.TenantSpec{{Name: "a"}, {Name: "a"}}}},
		{"empty tenant name", orchestrator.Config{Tenants: []orchestrator.TenantSpec{{Name: ""}}}},
		{"bad over-quota", orchestrator.Config{Tenants: []orchestrator.TenantSpec{{Name: "a", OverQuota: "drop"}}}},
		{"negative quota", orchestrator.Config{Tenants: []orchestrator.TenantSpec{{Name: "a", Quota: -1}}}},
		{"max mismatch", orchestrator.Config{Autoscale: &orchestrator.AutoscaleSpec{Min: 1, Max: 5}}},
		{"inverted band", orchestrator.Config{Autoscale: &orchestrator.AutoscaleSpec{Min: 1, Max: 2, UpLoad: 2, DownLoad: 3}}},
	}
	for _, tc := range cases {
		if _, err := orchestrator.New(f, tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// merged merges every board of a farm that has run through
// Cluster.AbsorbInto, the facade's own merge, and summarizes it.
func merged(f *cluster.Farm) metrics.Summary {
	var agg metrics.Collector
	for _, p := range f.Pairs {
		p.AbsorbInto(&agg)
	}
	return agg.Summarize()
}
