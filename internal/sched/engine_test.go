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

// testRig builds a ready-to-use engine without a policy driving it.
type testRig struct {
	k      *sim.Kernel
	engine *Engine
}

// nullPolicy satisfies Policy but makes no decisions; tests drive the
// engine directly.
type nullPolicy struct{ scheduled int }

func (n *nullPolicy) Name() string                        { return "null" }
func (n *nullPolicy) Init(*Engine)                        {}
func (n *nullPolicy) AppArrived(*appmodel.App)            {}
func (n *nullPolicy) Schedule()                           { n.scheduled++ }
func (n *nullPolicy) AppFinished(*appmodel.App)           {}
func (n *nullPolicy) ExtractMigratable() []*appmodel.App  { return nil }
func (n *nullPolicy) AcceptMigrated(apps []*appmodel.App) {}

func newRig(t *testing.T, platform string, model hypervisor.CoreModel) *testRig {
	t.Helper()
	k := sim.NewKernel(1)
	repo := bitstream.NewRepository()
	bitstream.NewGenerator().GenerateAll(repo, workload.Suite())
	board := fabric.NewBoard(0, fabric.MustPlatform(platform))
	e := NewEngine(k, DefaultParams(), board, model, repo)
	e.SetPolicy(&nullPolicy{})
	return &testRig{k: k, engine: e}
}

func littleApp(id int, spec *appmodel.AppSpec, batch int) *appmodel.App {
	a := appmodel.NewApp(id, spec, batch, 0)
	a.Install(appmodel.TaskPlan(spec, "Little", 1.0, func(i int) string {
		return bitstream.TaskName(spec.Name, spec.Tasks[i].Name, "Little")
	}))
	a.State = appmodel.StateReady
	return a
}

func TestRequestPRLoadsStage(t *testing.T) {
	r := newRig(t, fabric.ZCU216OnlyLittle, hypervisor.DualCore)
	a := littleApp(1, workload.IC, 3)
	r.engine.Apps = append(r.engine.Apps, a)
	st := &a.Stages[0]
	slot := r.engine.Board.Slots[0]
	r.engine.RequestPR(st, slot)
	if !st.Loading() || st.Slot() != slot {
		t.Fatal("stage not marked loading")
	}
	if slot.State() != fabric.SlotLoading {
		t.Fatal("slot not loading")
	}
	r.k.Run()
	if st.Loading() || !st.Resident() {
		t.Fatal("stage not resident after load")
	}
	if slot.State() != fabric.SlotLoaded {
		t.Fatal("slot not loaded")
	}
	if r.engine.Col.PRLoads != 1 {
		t.Fatal("PR not counted")
	}
}

func TestRequestPRKindMismatchPanics(t *testing.T) {
	r := newRig(t, fabric.ZCU216BigLittle, hypervisor.DualCore)
	a := littleApp(1, workload.IC, 3)
	bigSlot := r.engine.Board.SlotsOf("Big")[0]
	defer func() {
		if recover() == nil {
			t.Error("little stage into big slot did not panic")
		}
	}()
	r.engine.RequestPR(&a.Stages[0], bigSlot)
}

// TestSingleCorePRBlocksLaunch reproduces the paper's Fig. 2 blocking:
// a PCAP load on the scheduler core delays a pending item launch by the
// full load duration.
func TestSingleCorePRBlocksLaunch(t *testing.T) {
	delays := map[hypervisor.CoreModel]sim.Duration{}
	for _, model := range []hypervisor.CoreModel{hypervisor.SingleCore, hypervisor.DualCore} {
		r := newRig(t, fabric.ZCU216OnlyLittle, model)
		a := littleApp(1, workload.IC, 2)
		r.engine.Apps = append(r.engine.Apps, a)
		st0 := &a.Stages[0]
		// Make stage 0 resident instantly, then start a long PR for
		// stage 1 and immediately try to launch stage 0's first item.
		r.engine.PlaceResident(st0, r.engine.Board.Slots[0])
		r.engine.RequestPR(&a.Stages[1], r.engine.Board.Slots[1])
		var started sim.Time
		launched := r.engine.LaunchItem(st0)
		if !launched {
			t.Fatal("launch rejected")
		}
		r.k.Run()
		// Done==1 first item executed; compute when it completed.
		started = a.Finish // not used; compute from stage instead
		_ = started
		delays[model] = sim.Duration(0)
		// The slot completed its first item at ItemTime + launch delay;
		// infer the delay from PCAP wait statistics instead: use the
		// scheduler core stats.
		stats := r.engine.Cores.Sched.Stats()
		delays[model] = stats.WaitByName["launch"]
	}
	if delays[hypervisor.SingleCore] <= delays[hypervisor.DualCore] {
		t.Fatalf("single-core launch wait (%v) not above dual-core (%v)",
			delays[hypervisor.SingleCore], delays[hypervisor.DualCore])
	}
	if delays[hypervisor.DualCore] > sim.Millisecond {
		t.Fatalf("dual-core launch waited %v behind PR", delays[hypervisor.DualCore])
	}
}

func TestLaunchItemGuards(t *testing.T) {
	r := newRig(t, fabric.ZCU216OnlyLittle, hypervisor.DualCore)
	a := littleApp(1, workload.IC, 2)
	st := &a.Stages[1] // no input available yet
	r.engine.PlaceResident(st, r.engine.Board.Slots[0])
	if r.engine.LaunchItem(st) {
		t.Fatal("launched a stage with no upstream input")
	}
	st0 := &a.Stages[0]
	if r.engine.LaunchItem(st0) {
		t.Fatal("launched a non-resident stage")
	}
}

func TestPumpRunsWholeApp(t *testing.T) {
	r := newRig(t, fabric.ZCU216OnlyLittle, hypervisor.DualCore)
	a := littleApp(1, workload.ThreeDR, 4)
	r.engine.Apps = append(r.engine.Apps, a)
	r.engine.Active = append(r.engine.Active, a)
	for i := range a.Stages {
		st := &a.Stages[i]
		r.engine.PlaceResident(st, r.engine.Board.Slots[i])
	}
	// Re-pump on every activation via a driving policy.
	p := &pumpPolicy{e: r.engine, app: a}
	r.engine.policy = p
	r.engine.Activate()
	r.k.Run()
	if !a.Done() {
		t.Fatalf("app not finished: remaining %d", a.RemainingItems())
	}
	if a.State != appmodel.StateFinished {
		t.Fatal("state not finished")
	}
	if len(r.engine.Col.Responses) != 1 {
		t.Fatal("response not recorded")
	}
}

type pumpPolicy struct {
	nullPolicy
	e   *Engine
	app *appmodel.App
}

func (p *pumpPolicy) Schedule() { p.e.Pump(p.app) }

func TestEvictionAccounting(t *testing.T) {
	r := newRig(t, fabric.ZCU216OnlyLittle, hypervisor.DualCore)
	a := littleApp(1, workload.IC, 5)
	st := &a.Stages[0]
	r.engine.PlaceResident(st, r.engine.Board.Slots[0])
	a.Started = true
	r.engine.EvictStage(st)
	if r.engine.Col.Preemptions != 1 {
		t.Fatal("unfinished eviction not counted as preemption")
	}
	if st.Slot() != nil {
		t.Fatal("stage still placed")
	}
	if r.engine.Board.Slots[0].State() != fabric.SlotEmpty {
		t.Fatal("slot not emptied")
	}
}

func TestFullReconfigCost(t *testing.T) {
	r := newRig(t, fabric.ZCU216Monolithic, hypervisor.SingleCore)
	full := r.engine.Repo.MustGet(bitstream.FullName("IC"))
	cost := r.engine.FullReconfigCost(full)
	pcapOnly := r.engine.PCAP.LoadDuration(full)
	if cost < pcapOnly+r.engine.Params.FullReconfigInit {
		t.Fatalf("full reconfig %v below PCAP+init floor", cost)
	}
	// With caching disabled the SD stream is added.
	p2 := DefaultParams()
	p2.FullBitstreamCached = false
	r2 := newRig(t, fabric.ZCU216Monolithic, hypervisor.SingleCore)
	r2.engine.Params = p2
	if r2.engine.FullReconfigCost(full) <= cost {
		t.Fatal("uncached full reconfig not more expensive")
	}
}

func TestWindowCounters(t *testing.T) {
	r := newRig(t, fabric.ZCU216OnlyLittle, hypervisor.DualCore)
	a := littleApp(1, workload.IC, 2)
	// Two PRs back to back: the second sees one pending load.
	r.engine.RequestPR(&a.Stages[0], r.engine.Board.Slots[0])
	r.engine.RequestPR(&a.Stages[1], r.engine.Board.Slots[1])
	if r.engine.WindowPR != 2 {
		t.Fatalf("window PR %d", r.engine.WindowPR)
	}
	if r.engine.WindowBlocked != 1 {
		t.Fatalf("window blocked %d, want 1 (second behind first)", r.engine.WindowBlocked)
	}
	b, p := r.engine.ResetWindow()
	if b != 1 || p != 2 {
		t.Fatal("ResetWindow returned wrong counts")
	}
	if r.engine.WindowBlocked != 0 || r.engine.WindowPR != 0 {
		t.Fatal("window not reset")
	}
}

func TestUtilizationIntegrals(t *testing.T) {
	r := newRig(t, fabric.ZCU216OnlyLittle, hypervisor.DualCore)
	a := littleApp(1, workload.ThreeDR, 2)
	r.engine.Apps = append(r.engine.Apps, a)
	r.engine.Active = append(r.engine.Active, a)
	for i := range a.Stages {
		st := &a.Stages[i]
		r.engine.PlaceResident(st, r.engine.Board.Slots[i])
	}
	p := &pumpPolicy{e: r.engine, app: a}
	r.engine.policy = p
	r.engine.Activate()
	r.k.Run()
	r.engine.FlushResidency()
	lut, ff := r.engine.Col.BusyUtilization()
	if lut <= 0 || ff <= 0 {
		t.Fatalf("no busy utilization recorded (lut=%v ff=%v)", lut, ff)
	}
	rlut, rff := r.engine.Col.Utilization()
	if rlut <= 0 || rff <= 0 {
		t.Fatal("no resident utilization recorded")
	}
	// Resident time covers at least the busy time.
	if rlut < lut*0.99 {
		t.Fatalf("resident integral %v below busy %v", rlut, lut)
	}
}

func TestCheckQuiescentPanicsOnDeadlock(t *testing.T) {
	r := newRig(t, fabric.ZCU216OnlyLittle, hypervisor.DualCore)
	a := littleApp(1, workload.IC, 2)
	r.engine.Apps = append(r.engine.Apps, a) // never scheduled
	defer func() {
		if recover() == nil {
			t.Error("CheckQuiescent did not panic with unfinished apps")
		}
	}()
	r.engine.CheckQuiescent()
}

func TestFrozenFlag(t *testing.T) {
	r := newRig(t, fabric.ZCU216OnlyLittle, hypervisor.DualCore)
	if r.engine.Frozen() {
		t.Fatal("new engine frozen")
	}
	r.engine.SetFrozen(true)
	if !r.engine.Frozen() {
		t.Fatal("freeze did not stick")
	}
}

func TestRemoveActiveRejectsSlotHolders(t *testing.T) {
	r := newRig(t, fabric.ZCU216OnlyLittle, hypervisor.DualCore)
	a := littleApp(1, workload.IC, 2)
	r.engine.Active = append(r.engine.Active, a)
	r.engine.PlaceResident(&a.Stages[0], r.engine.Board.Slots[0])
	defer func() {
		if recover() == nil {
			t.Error("RemoveActive with held slots did not panic")
		}
	}()
	r.engine.RemoveActive(a)
}
