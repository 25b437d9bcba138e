package sched

import (
	"testing"

	"versaslot/internal/appmodel"
	"versaslot/internal/bitstream"
	"versaslot/internal/fabric"
	"versaslot/internal/hypervisor"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// --- Exclusive baseline specifics ------------------------------------

func TestExclusiveQuantumGranularity(t *testing.T) {
	// With a huge quantum the baseline degenerates to run-to-completion:
	// exactly one reconfiguration per app even under contention.
	k := sim.NewKernel(1)
	repo := bitstream.NewRepository()
	bitstream.NewGenerator().GenerateAll(repo, workload.Suite())
	params := DefaultParams()
	params.BaselineQuantum = 3600 * sim.Second
	e := NewEngine(k, params, fabric.NewBoard(0, fabric.MustPlatform(fabric.ZCU216Monolithic)), hypervisor.SingleCore, repo)
	e.SetPolicy(builtin(t, "baseline").Factory())
	apps := []*appmodel.App{
		appmodel.NewApp(0, workload.IC, 20, 0),
		appmodel.NewApp(1, workload.AN, 20, sim.Time(10*sim.Millisecond)),
	}
	e.InjectSequence(apps)
	k.Run()
	e.CheckQuiescent()
	if e.Col.PRLoads != 2 {
		t.Fatalf("run-to-completion baseline did %d reconfigs, want 2", e.Col.PRLoads)
	}
}

// --- VersaSlot BL rebinding --------------------------------------------

// TestBLRebindingMovesWaitingAppToBig drives the rebinding branch of
// Algorithm 1 deterministically: a bundleable app is bound to Little
// while the Big slots are busy; when the Big app finishes before the
// Little-bound app starts, the policy unbinds and rebinds it to Big.
func TestBLRebindingMovesWaitingAppToBig(t *testing.T) {
	k := sim.NewKernel(1)
	repo := bitstream.NewRepository()
	bitstream.NewGenerator().GenerateAll(repo, workload.Suite())
	e := NewEngine(k, DefaultParams(), fabric.NewBoard(0, fabric.MustPlatform(fabric.ZCU216BigLittle)), hypervisor.DualCore, repo)
	pol := NewVersaSlotBL()
	e.SetPolicy(pol)

	// App 0: tiny bundleable app that takes the Big slots briefly.
	// Apps 1-4: LeNet floods the Little slots so app 5 (bundleable)
	// ends up queued; when app 0 leaves the Big slots, rebinding gives
	// them to a not-yet-started bundleable app.
	apps := []*appmodel.App{
		appmodel.NewApp(0, workload.ThreeDR, 2, 0),
		appmodel.NewApp(1, workload.LeNet, 30, sim.Time(sim.Millisecond)),
		appmodel.NewApp(2, workload.LeNet, 30, sim.Time(2*sim.Millisecond)),
		appmodel.NewApp(3, workload.IC, 25, sim.Time(3*sim.Millisecond)),
		appmodel.NewApp(4, workload.IC, 25, sim.Time(4*sim.Millisecond)),
	}
	e.InjectSequence(apps)
	k.Run()
	e.CheckQuiescent()

	// At least one of the bundleable apps (3, 4) must have executed in
	// Big slots even though the Big slots were taken on its arrival.
	rebound := false
	for _, a := range apps[3:] {
		if len(a.Stages) > 0 && a.Stages[0].Class() == "Big" {
			rebound = true
		}
	}
	if !rebound {
		t.Fatal("no bundleable app reached the Big slots after they freed")
	}
}

// --- ensureProgress ----------------------------------------------------

func TestEnsureProgressSwapsStarvedPipeline(t *testing.T) {
	k := sim.NewKernel(1)
	repo := bitstream.NewRepository()
	bitstream.NewGenerator().GenerateAll(repo, workload.Suite())
	e := NewEngine(k, DefaultParams(), fabric.NewBoard(0, fabric.MustPlatform(fabric.ZCU216OnlyLittle)), hypervisor.DualCore, repo)
	e.SetPolicy(&nullPolicy{})
	a := littleApp(1, workload.ThreeDR, 5)
	e.Apps = append(e.Apps, a)
	e.Active = append(e.Active, a)

	// Simulate a pathological shrink: stage 1 resident, stage 0 (the
	// earliest unfinished) evicted, nothing runnable.
	e.PlaceResident(&a.Stages[1], e.Board.Slots[0])
	if a.Stages[1].NextItemReady() {
		t.Fatal("setup: stage 1 should be starved")
	}
	ensureProgress(e, a)
	if !a.Stages[0].Loading() && a.Stages[0].Slot() == nil {
		t.Fatal("ensureProgress did not reload the earliest unfinished stage")
	}
	k.Run()
	if !a.Stages[0].Resident() {
		t.Fatal("stage 0 not resident after swap")
	}
}

// --- Gang helpers ------------------------------------------------------

func TestGangNeedClamps(t *testing.T) {
	a := littleApp(1, workload.OF, 5) // 9 stages
	if got := gangNeed(a, 8); got != 8 {
		t.Fatalf("gangNeed %d, want 8 (board cap)", got)
	}
	// Finished stages reduce the need.
	for i := range a.Stages[:5] {
		st := &a.Stages[i]
		st.SetDone(5)
	}
	if got := gangNeed(a, 8); got != 4 {
		t.Fatalf("gangNeed %d after progress, want 4", got)
	}
	for i := range a.Stages {
		st := &a.Stages[i]
		st.SetDone(5)
	}
	if got := gangNeed(a, 8); got != 1 {
		t.Fatalf("gangNeed floor %d, want 1", got)
	}
}

func TestShrinkVictimSparesEarliestUnfinished(t *testing.T) {
	a := littleApp(1, workload.IC, 5)
	slots := []*fabric.Slot{
		{ID: 0, Class: fabric.LittleClass}, {ID: 1, Class: fabric.LittleClass},
	}
	// Stage 0 (earliest unfinished) and stage 3 both resident and idle.
	mustResident(t, &a.Stages[0], slots[0])
	mustResident(t, &a.Stages[3], slots[1])
	v := shrinkVictim(a)
	if v != &a.Stages[3] {
		t.Fatalf("victim %v, want the downstream stage", v)
	}
	// Only the earliest unfinished resident: no victim.
	a.Stages[3].Evict()
	if shrinkVictim(a) != nil {
		t.Fatal("earliest unfinished stage chosen as victim")
	}
}

func mustResident(t *testing.T, st *appmodel.Stage, slot *fabric.Slot) {
	t.Helper()
	if err := slot.BeginLoad(st); err != nil {
		t.Fatal(err)
	}
	if err := slot.CompleteLoad(); err != nil {
		t.Fatal(err)
	}
	st.Attach(slot)
	st.SetLoading(false)
}

// --- Teardown gate ------------------------------------------------------

func TestFCFSTeardownDelaysAdmission(t *testing.T) {
	mk := func(teardown sim.Duration) sim.Time {
		k := sim.NewKernel(1)
		repo := bitstream.NewRepository()
		bitstream.NewGenerator().GenerateAll(repo, workload.Suite())
		params := DefaultParams()
		params.TenantTeardown = teardown
		e := NewEngine(k, params, fabric.NewBoard(0, fabric.MustPlatform(fabric.ZCU216OnlyLittle)), hypervisor.SingleCore, repo)
		e.SetPolicy(builtin(t, "fcfs").Factory())
		// Two 9-task apps: each gang needs all 8 slots, so the second
		// admission must wait for the first tenant's teardown.
		apps := []*appmodel.App{
			appmodel.NewApp(0, workload.OF, 3, 0),
			appmodel.NewApp(1, workload.OF, 3, sim.Time(sim.Millisecond)),
		}
		e.InjectSequence(apps)
		k.Run()
		e.CheckQuiescent()
		return apps[1].Finish
	}
	fast := mk(0)
	slow := mk(2 * sim.Second)
	if slow < fast.Add(1900*sim.Millisecond) {
		t.Fatalf("teardown not respected: %v vs %v", fast, slow)
	}
}
