package cluster

import (
	"testing"

	"versaslot/internal/fabric"
	"versaslot/internal/migrate"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

func denseSequence(apps int, seed uint64) *workload.Sequence {
	p := workload.DefaultGenParams(workload.Standard)
	p.Apps = apps
	p.IntervalLo = 400 * sim.Millisecond
	p.IntervalHi = 600 * sim.Millisecond
	return workload.Generate(p, seed)
}

// onePair builds a farm of exactly one switching pair, the way every
// pair runs.
func onePair(t testing.TB, cfg Config) *Farm {
	t.Helper()
	f, err := NewFarm(FarmConfig{Pair: cfg, Pairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestClusterCompletesEverything(t *testing.T) {
	f := onePair(t, DefaultConfig())
	seq := denseSequence(30, 5000)
	if err := f.Inject(seq); err != nil {
		t.Fatal(err)
	}
	f.Run()
	resp := merged(f)
	if resp.Apps != 30 {
		t.Fatalf("finished %d of 30", resp.Apps)
	}
	if resp.MeanRT <= 0 {
		t.Fatal("non-positive mean RT")
	}
}

func TestClusterSwitchesUnderContention(t *testing.T) {
	f := onePair(t, DefaultConfig())
	seq := denseSequence(60, 5001)
	if err := f.Inject(seq); err != nil {
		t.Fatal(err)
	}
	sum := f.Run()
	if sum.Switches == 0 {
		t.Fatal("dense workload triggered no cross-board switch")
	}
	// Every switch decision in the trace must coincide with a
	// threshold crossing of the smoothed D value.
	cfg := DefaultConfig()
	for i, p := range sum.Trace {
		if p.Decision == migrate.Switch {
			fromOL := p.Mode == migrate.Base
			if fromOL && p.D < cfg.ThresholdUp {
				t.Fatalf("trace %d: OL->BL switch below T1 (D=%v)", i, p.D)
			}
			if !fromOL && p.D > cfg.ThresholdDown {
				t.Fatalf("trace %d: BL->OL switch above T2 (D=%v)", i, p.D)
			}
		}
	}
	if sum.MeanSwitchTime <= 0 {
		t.Fatal("switch overhead not recorded")
	}
	// The paper reports ~1.13 ms; our payloads are the same order.
	if sum.MeanSwitchTime > 100*sim.Millisecond {
		t.Fatalf("switch overhead %v not remotely at the ms scale", sum.MeanSwitchTime)
	}
}

func TestClusterMigratedAppsKeepArrival(t *testing.T) {
	f := onePair(t, DefaultConfig())
	cl := f.Pairs[0]
	seq := denseSequence(60, 5002)
	if err := f.Inject(seq); err != nil {
		t.Fatal(err)
	}
	sum := f.Run()
	if sum.MigratedApps == 0 {
		t.Skip("no apps migrated in this seed")
	}
	// Response times are measured against original arrivals, so every
	// response must match finish-arrival for its app across boards.
	for _, e := range cl.engines {
		for _, a := range e.Apps {
			if a.Migrated > 0 && a.ResponseTime() != a.Finish.Sub(a.Arrival) {
				t.Fatal("migrated app response time inconsistent")
			}
		}
	}
}

func TestClusterBothEnginesQuiesce(t *testing.T) {
	f := onePair(t, DefaultConfig())
	cl := f.Pairs[0]
	seq := denseSequence(40, 5003)
	if err := f.Inject(seq); err != nil {
		t.Fatal(err)
	}
	f.Run()
	for mode, e := range cl.engines {
		for _, s := range e.Board.Slots {
			if s.State() == fabric.SlotBusy || s.State() == fabric.SlotLoading {
				t.Fatalf("%v board slot %d still %v after drain", mode, s.ID, s.State())
			}
		}
	}
}

func TestClusterStartsOnConfiguredBoard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StartMode = migrate.Boost
	cl := onePair(t, cfg).Pairs[0]
	if cl.ActiveMode() != migrate.Boost {
		t.Fatal("start mode ignored")
	}
	if cl.Engine(migrate.Base) == nil || cl.Engine(migrate.Boost) == nil {
		t.Fatal("boards missing")
	}
}

func TestClusterTraceMonotoneCompletions(t *testing.T) {
	f := onePair(t, DefaultConfig())
	seq := denseSequence(40, 5004)
	if err := f.Inject(seq); err != nil {
		t.Fatal(err)
	}
	sum := f.Run()
	prev := -1
	for _, p := range sum.Trace {
		if p.Completed < prev {
			t.Fatal("completed count went backwards in trace")
		}
		prev = p.Completed
		if p.D < 0 || p.D > 1 {
			t.Fatalf("D out of range: %v", p.D)
		}
	}
}
