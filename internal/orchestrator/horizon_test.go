package orchestrator_test

import (
	"testing"

	"versaslot/internal/cluster"
	"versaslot/internal/orchestrator"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// TestTickHorizonAutoscale pins the orchestrator's share of the farm
// executor's lookahead bound: before Start nothing is armed; after
// Start the autoscaler's first evaluation tick is the horizon, and the
// farm kernel's next event lies at or before it — the invariant
// that keeps pairs from running past a control tick.
func TestTickHorizonAutoscale(t *testing.T) {
	f := cluster.MustNewFarm(cluster.DefaultFarmConfig(2))
	o := mustOrchestrate(t, f, orchestrator.Config{
		Autoscale: &orchestrator.AutoscaleSpec{Max: 2, Every: sim.Second},
	})
	if _, armed := o.TickHorizon(); armed {
		t.Fatal("TickHorizon armed before Start")
	}
	o.Start()
	horizon, armed := o.TickHorizon()
	if !armed {
		t.Fatal("autoscale tick scheduled but TickHorizon reports none")
	}
	if want := f.K.Now() + sim.Time(sim.Second); horizon != want {
		t.Errorf("autoscale horizon %v, want %v", horizon, want)
	}
	if next, ok := f.K.NextAt(); !ok || next > horizon {
		t.Errorf("farm kernel's next event %v (pending=%v) past the orchestrator horizon %v", next, ok, horizon)
	}
}

// TestTickHorizonTracksAdmissionPump drives a quota-throttled run one
// farm event at a time: whenever the admission pump (or an autoscale
// tick) is pending, the reported horizon must be visible on the
// farm kernel at or before that instant.
func TestTickHorizonTracksAdmissionPump(t *testing.T) {
	f := cluster.MustNewFarm(cluster.DefaultFarmConfig(2))
	o := mustOrchestrate(t, f, orchestrator.Config{
		Tenants:    []orchestrator.TenantSpec{{Name: "batch", Quota: 1}},
		AdmitEvery: 100 * sim.Millisecond,
	})
	if err := o.InjectTenants([]*workload.Sequence{tenantSeq(workload.Stress, 8, 7, "batch")}); err != nil {
		t.Fatal(err)
	}
	o.Start()
	sawPump := false
	for f.Step() {
		horizon, armed := o.TickHorizon()
		if !armed {
			continue
		}
		sawPump = true
		if horizon < f.K.Now() {
			t.Fatalf("horizon %v behind the clock %v", horizon, f.K.Now())
		}
		if next, ok := f.K.NextAt(); !ok || next > horizon {
			t.Fatalf("pump tick at %v invisible to the farm kernel (next event %v, pending=%v)", horizon, next, ok)
		}
	}
	if !sawPump {
		t.Error("quota-1 tenant with 8 apps never armed the admission pump")
	}
}
