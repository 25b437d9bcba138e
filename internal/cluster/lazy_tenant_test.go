package cluster_test

import (
	"testing"

	"versaslot/internal/cluster"
	"versaslot/internal/metrics"
	"versaslot/internal/orchestrator"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// TestLazyPairsBuildWhatTheyUse checks that a farm builds a pair's
// active board exactly when the pair is routed an arrival or receives
// a migrated app: a 1,024-pair least-loaded fleet, an affinity farm and
// a tenant farm, whose orchestrator chains its accounting onto every
// board it builds, leave every other pair unbuilt.
func TestLazyPairsBuildWhatTheyUse(t *testing.T) {
	cases := []struct {
		name, dispatcher string
		pairs, apps      int
		tenants          bool
	}{
		{"least-loaded", cluster.DispatchLeastLoaded, 1024, 256, false},
		{"affinity", cluster.DispatchAffinity, 64, 128, false},
		{"tenants", cluster.DispatchLeastLoaded, 16, 24, true},
	}
	for _, c := range cases {
		cfg := cluster.DefaultFarmConfig(c.pairs)
		cfg.Dispatcher = c.dispatcher
		cfg.RebalanceEvery = 2 * sim.Second
		f := cluster.MustNewFarm(cfg)
		p := workload.DefaultGenParams(workload.Stress)
		p.Apps = c.apps
		if c.tenants {
			specs := []orchestrator.TenantSpec{{Name: "batch", Quota: 3}, {Name: "interactive", Quota: 2}}
			orch, err := orchestrator.New(f, orchestrator.Config{Tenants: specs})
			if err != nil {
				t.Fatal(err)
			}
			p.Apps = c.apps / 2
			seqs := []*workload.Sequence{workload.Generate(p, 11), workload.Generate(p, 12)}
			if err := orch.InjectTenants(seqs); err != nil {
				t.Fatal(err)
			}
			orch.Start()
		} else if err := f.Inject(workload.Generate(p, 11)); err != nil {
			t.Fatal(err)
		}
		sum := f.Run()
		var agg metrics.Collector
		built := 0
		for i, pair := range f.Pairs {
			pair.AbsorbInto(&agg)
			active := pair.Built(cfg.Pair.StartMode) != nil
			if active {
				built++
			}
			routed, in := sum.PairStats[i].Routed, sum.PairStats[i].MigratedIn
			if used := routed > 0 || in > 0; active != used {
				t.Errorf("%s: pair %d active board built=%v, but routed %d and received %d apps",
					c.name, i, active, routed, in)
			}
		}
		t.Logf("%s: %d of %d pairs built, %d cross-migrated apps", c.name, built, c.pairs, sum.CrossMigratedApps)
		if apps := agg.Summarize().Apps; apps != c.apps || built == 0 || built == c.pairs {
			t.Errorf("%s: %d of %d apps finished on %d of %d built pairs; want every app, and some pairs left unbuilt",
				c.name, apps, c.apps, built, c.pairs)
		}
	}
}
