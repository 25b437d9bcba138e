package cluster

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"versaslot/internal/appmodel"
	"versaslot/internal/fabric"
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

// TestSpareBuiltOnFirstUse checks that a pair builds its spare board
// exactly when it prewarms or switches.
func TestSpareBuiltOnFirstUse(t *testing.T) {
	check := func(t *testing.T, label string, cfg FarmConfig, cond workload.Condition, apps int, seed uint64) Summary {
		t.Helper()
		f, sum := spareRun(t, cfg, cond, apps, seed)
		built := 0
		for i, p := range f.Pairs {
			spare := p.Built(cfg.Pair.StartMode.Other()) != nil
			if spare {
				built++
			}
			if want := usedSpare(p); spare != want {
				t.Errorf("%s: pair %d spare built=%v, but prewarmed or switched=%v", label, i, spare, want)
			}
		}
		t.Logf("%s: %d of %d spares built, %d switches", label, built, len(f.Pairs), sum.Switches)
		if resp := merged(f); resp.Apps != apps {
			t.Errorf("%s: %d of %d apps finished", label, resp.Apps, apps)
		}
		return sum
	}
	// A wide least-loaded farm with a couple of apps per pair never
	// reaches a D_switch threshold: no spare is ever needed.
	fleet := DefaultFarmConfig(64)
	fleet.RebalanceEvery = 2 * sim.Second
	if sum := check(t, "fleet", fleet, workload.Stress, 128, 17); len(sum.Trace) == 0 {
		t.Error("fleet: no D_switch evaluation ran; the input does not exercise the pair loop")
	}
	// A small real-time farm switches on every seed here, so some
	// spares are built mid-run, inside pair events.
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultFarmConfig(4)
		cfg.Pair.Seed = seed
		if sum := check(t, "real-time", cfg, workload.Realtime, 48, seed); sum.Switches == 0 {
			t.Errorf("real-time seed %d: no pair switched; the input does not exercise a spare", seed)
		}
	}
}

// TestSpareBuildSubmitsNoPass checks how a pair builds its boards on
// first use: the active board live and the spare frozen, each with the
// pair's hooks and then the farm's build hook, and without submitting a
// scheduler pass to the kernel.
func TestSpareBuildSubmitsNoPass(t *testing.T) {
	f := onePair(t, DefaultConfig())
	cl := f.Pairs[0]
	var hooked []int
	f.AddBuildHook(func(e *sched.Engine) { hooked = append(hooked, e.Board.ID) })
	if cl.Built(migrate.Base) != nil || cl.Built(migrate.Boost) != nil {
		t.Fatal("the pair built a board at construction")
	}
	pending := cl.K.Pending()
	active, spare := cl.Engine(migrate.Base), cl.Engine(migrate.Boost)
	if n := cl.K.Pending() - pending; n != 0 {
		t.Errorf("building the boards scheduled %d events, want 0", n)
	}
	if view := sched.Pair((*pairHooks)(cl)); active.Frozen() || !spare.Frozen() || spare.Pair() != view || active.Pair() != view {
		t.Errorf("active frozen=%v, spare frozen=%v, spare reports to its pair=%v, active board reports to its pair=%v; want false, true, true, true",
			active.Frozen(), spare.Frozen(), spare.Pair() == view, active.Pair() == view)
	}
	if want := []int{cl.BoardID(migrate.Base), cl.BoardID(migrate.Boost)}; !reflect.DeepEqual(hooked, want) || spare.Board.ID != want[1] {
		t.Errorf("build hook saw boards %v, spare is board %d; want %v", hooked, spare.Board.ID, want)
	}
	if cl.Engine(migrate.Boost) != spare || cl.Built(migrate.Boost) != spare || cl.Engine(migrate.Base) != active {
		t.Error("a second Engine call rebuilt a board")
	}
}

// TestLateSpareResults pins, byte for byte, the summaries of runs whose
// spares are built after the farm's slabs, on storage of their own: by
// a prewarm (no switch follows), by a switch (mid-run, in a pair
// event) and up front for every pair, as fault.Attach and
// the orchestrator do. The digests were taken when every board was
// built on its own, before the farm built its active boards from slabs.
func TestLateSpareResults(t *testing.T) {
	stress, realtime := DefaultFarmConfig(2), DefaultFarmConfig(4)
	stress.Pair.Seed = 2
	realtime.Pair.Seed = 1
	attach := DefaultFarmConfig(3)
	cases := []struct {
		name     string
		cfg      FarmConfig
		cond     workload.Condition
		apps     int
		seed     uint64
		buildAll bool
		want     string
	}{
		{"prewarm", stress, workload.Stress, 16, 2, false, "ec2b267b4f67f43ed468631065d6db0bc8de79bf8dde038bb3b3e8eda8db23eb"},
		{"switch", realtime, workload.Realtime, 48, 1, false, "6e2675e83dae3b7e1ec4fe279582bd7ed0d654d9f7834bd985d4b7fbac6ca8c4"},
		{"attach", attach, workload.Stress, 24, 5, true, "977b574823ca766079d1bc8e6ccec5a73f5e0676d24701872b74037f24400517"},
	}
	for _, c := range cases {
		f := MustNewFarm(c.cfg)
		if c.buildAll {
			for _, p := range f.Pairs {
				for _, mode := range pairModes {
					p.Engine(mode)
				}
			}
		}
		p := workload.DefaultGenParams(c.cond)
		p.Apps = c.apps
		if err := f.Inject(workload.Generate(p, c.seed)); err != nil {
			t.Fatal(err)
		}
		sum := f.Run()
		resp := merged(f)
		// The digests cover the merged response times the summary
		// carried when they were taken, in its field order.
		raw, err := json.Marshal(struct {
			Apps          int
			MeanRT        sim.Duration
			P50, P95, P99 sim.Duration
			Summary
		}{resp.Apps, resp.MeanRT, resp.P50, resp.P95, resp.P99, sum})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256(raw))
		spares := 0
		for _, p := range f.Pairs {
			if p.Built(p.ActiveMode().Other()) != nil {
				spares++
			}
		}
		if spares == 0 || resp.Apps != c.apps {
			t.Errorf("%s: %d spares built, %d of %d apps finished; the case does not exercise a late spare",
				c.name, spares, resp.Apps, c.apps)
		}
		if got != c.want {
			t.Errorf("%s: summary digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCrashOnFrozenBoardRehomed checks the pair's AppCrashed view: an
// app crash-restarted on the frozen board a switch left behind is
// re-homed to the active board, where it finishes, instead of queueing
// on a board that makes no new placements.
func TestCrashOnFrozenBoardRehomed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	f := onePair(t, cfg)
	cl := f.Pairs[0]
	p := workload.DefaultGenParams(workload.Realtime)
	p.Apps = 48
	if err := f.Inject(workload.Generate(p, 1)); err != nil {
		t.Fatal(err)
	}
	start := cl.ActiveMode()
	for cl.ActiveMode() == start && f.Step() {
	}
	if cl.ActiveMode() == start {
		t.Fatal("the pair never switched; the input does not leave a frozen board")
	}
	old, active := cl.Built(cl.ActiveMode().Other()), cl.Built(cl.ActiveMode())
	var victim *appmodel.App
	var slot *fabric.Slot
	for _, a := range old.Active {
		for i := range a.Stages {
			if s := a.Stages[i].Slot(); s != nil && s.State() == fabric.SlotBusy {
				victim, slot = a, s
			}
		}
	}
	if !old.Frozen() || victim == nil {
		t.Fatalf("old board frozen=%v, executing app %v; want a frozen board executing an app", old.Frozen(), victim)
	}
	old.FailSlot(slot)
	if slices.Contains(old.Active, victim) || !slices.Contains(active.Active, victim) {
		t.Errorf("crash-restarted %v: on the frozen board %v, on the active board %v; want re-homed to the active board",
			victim, slices.Contains(old.Active, victim), slices.Contains(active.Active, victim))
	}
	old.RecoverSlot(slot)
	f.Run()
	if resp := merged(f); resp.Apps != p.Apps || victim.State != appmodel.StateFinished {
		t.Errorf("%d of %d apps finished, victim %v; want every app finished", resp.Apps, p.Apps, victim.State)
	}
}
