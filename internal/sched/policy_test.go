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

// runPolicy executes apps through a fresh engine+policy to completion
// and returns the engine.
func runPolicy(t *testing.T, kind Kind, apps []*appmodel.App) *Engine {
	t.Helper()
	k := sim.NewKernel(1)
	repo := bitstream.NewRepository()
	bitstream.NewGenerator().GenerateAll(repo, workload.Suite())
	var cfg string
	var model hypervisor.CoreModel
	switch kind {
	case KindBaseline:
		cfg, model = fabric.ZCU216Monolithic, hypervisor.SingleCore
	case KindFCFS, KindRR, KindNimblock:
		cfg, model = fabric.ZCU216OnlyLittle, hypervisor.SingleCore
	case KindVersaSlotOL:
		cfg, model = fabric.ZCU216OnlyLittle, hypervisor.DualCore
	case KindVersaSlotBL:
		cfg, model = fabric.ZCU216BigLittle, hypervisor.DualCore
	}
	board := fabric.NewBoard(0, fabric.MustPlatform(cfg))
	e := NewEngine(k, DefaultParams(), board, model, repo)
	e.SetPolicy(New(kind))
	e.InjectSequence(apps)
	k.Run()
	e.FlushResidency()
	e.CheckQuiescent()
	return e
}

func mkApp(id int, spec *appmodel.AppSpec, batch int, at sim.Duration) *appmodel.App {
	return appmodel.NewApp(id, spec, batch, sim.Time(at))
}

func TestKindsAndNames(t *testing.T) {
	if len(Kinds()) != 6 {
		t.Fatal("six systems expected")
	}
	seen := map[string]bool{}
	for _, k := range Kinds() {
		p := New(k)
		if p.Name() != k.String() {
			t.Errorf("policy name %q != kind %q", p.Name(), k)
		}
		if seen[p.Name()] {
			t.Errorf("duplicate name %q", p.Name())
		}
		seen[p.Name()] = true
	}
}

func TestNewUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown kind did not panic")
		}
	}()
	New(Kind(99))
}

// TestVersaSlotBLExtractMigratableUpTo pins the bounded extraction the
// farm rebalancer uses: most recently arrived waiting apps move first,
// the request is never exceeded, and unextracted apps stay queued.
func TestVersaSlotBLExtractMigratableUpTo(t *testing.T) {
	k := sim.NewKernel(1)
	repo := bitstream.NewRepository()
	bitstream.NewGenerator().GenerateAll(repo, workload.Suite())
	e := NewEngine(k, DefaultParams(), fabric.NewBoard(0, fabric.MustPlatform(fabric.ZCU216BigLittle)), hypervisor.DualCore, repo)
	p := NewVersaSlotBL()
	e.SetPolicy(p)
	apps := []*appmodel.App{
		mkApp(0, workload.AN, 3, 0),
		mkApp(1, workload.AN, 3, 0),
		mkApp(2, workload.AN, 3, 0),
	}
	// Inject without running the kernel: the scheduling pass has not
	// fired, so all three sit in the waiting list unbound.
	for _, a := range apps {
		e.InjectNow(a)
	}
	got := p.ExtractMigratableUpTo(2)
	if len(got) != 2 {
		t.Fatalf("extracted %d apps, want 2", len(got))
	}
	if got[0] != apps[2] || got[1] != apps[1] {
		t.Errorf("extraction order = [%v %v], want most recent first [%v %v]",
			got[0], got[1], apps[2], apps[1])
	}
	if len(p.cwait) != 1 || p.cwait[0].a != apps[0] {
		t.Errorf("waiting list after extraction = %v, want only %v", p.cwait, apps[0])
	}
	rest := p.ExtractMigratableUpTo(5)
	if len(rest) != 1 || rest[0] != apps[0] {
		t.Errorf("second extraction = %v, want the one remaining app", rest)
	}
}

// TestEngineForget: a cross-pair migration must erase the app from
// the source engine's bookkeeping entirely, or the source pair's
// D_switch stock would keep counting an app another pair now hosts.
func TestEngineForget(t *testing.T) {
	k := sim.NewKernel(1)
	repo := bitstream.NewRepository()
	bitstream.NewGenerator().GenerateAll(repo, workload.Suite())
	e := NewEngine(k, DefaultParams(), fabric.NewBoard(0, fabric.MustPlatform(fabric.ZCU216BigLittle)), hypervisor.DualCore, repo)
	p := NewVersaSlotBL()
	e.SetPolicy(p)
	a := mkApp(0, workload.AN, 3, 0)
	e.InjectNow(a)
	if len(e.Apps) != 1 || len(e.Active) != 1 {
		t.Fatalf("after inject: %d apps, %d active", len(e.Apps), len(e.Active))
	}
	p.ExtractMigratableUpTo(1)
	e.Forget(a)
	if len(e.Apps) != 0 || len(e.Active) != 0 {
		t.Errorf("after Forget: %d apps, %d active, want 0/0", len(e.Apps), len(e.Active))
	}
	if e.UnfinishedCount() != 0 {
		t.Errorf("UnfinishedCount = %d after Forget, want 0", e.UnfinishedCount())
	}
}

func TestExclusiveRunsToCompletionSolo(t *testing.T) {
	apps := []*appmodel.App{mkApp(0, workload.AN, 10, 0)}
	e := runPolicy(t, KindBaseline, apps)
	if apps[0].State != appmodel.StateFinished {
		t.Fatal("app unfinished")
	}
	// A lone app performs exactly one full reconfiguration: temporal
	// multiplexing only swaps when someone is waiting.
	if e.Col.PRLoads != 1 {
		t.Fatalf("solo app did %d reconfigs, want 1", e.Col.PRLoads)
	}
}

func TestExclusiveTimeSlicesUnderContention(t *testing.T) {
	// Two long apps arriving together: the quantum forces swaps, so
	// reconfigurations well exceed one per app.
	apps := []*appmodel.App{
		mkApp(0, workload.AN, 30, 0),
		mkApp(1, workload.OF, 30, 10*sim.Millisecond),
	}
	e := runPolicy(t, KindBaseline, apps)
	if e.Col.PRLoads <= 2 {
		t.Fatalf("no time-slicing: %d reconfigs for 2 contending apps", e.Col.PRLoads)
	}
	for _, a := range apps {
		if a.State != appmodel.StateFinished {
			t.Fatal("app unfinished")
		}
	}
}

func TestExclusiveSoloFasterThanContended(t *testing.T) {
	solo := runPolicy(t, KindBaseline, []*appmodel.App{mkApp(0, workload.IC, 10, 0)})
	soloRT := solo.Col.Responses[0].Response
	pair := runPolicy(t, KindBaseline, []*appmodel.App{
		mkApp(0, workload.IC, 10, 0),
		mkApp(1, workload.IC, 10, 0),
	})
	var worst sim.Duration
	for _, r := range pair.Col.Responses {
		if r.Response > worst {
			worst = r.Response
		}
	}
	if worst <= soloRT {
		t.Fatal("contention did not degrade the exclusive baseline")
	}
}

func TestFCFSHeadOfLineBlocking(t *testing.T) {
	// A 9-task OF occupies 8 slots; a later tiny 3DR must NOT overtake
	// it even though slots for 3DR would free earlier — strict FCFS.
	apps := []*appmodel.App{
		mkApp(0, workload.OF, 30, 0),
		mkApp(1, workload.OF, 30, 10*sim.Millisecond),
		mkApp(2, workload.ThreeDR, 5, 20*sim.Millisecond),
	}
	e := runPolicy(t, KindFCFS, apps)
	_ = e
	// Strict order: app 1 finishes before app 2 can even start, so
	// finish times are ordered by arrival.
	if !(apps[0].Finish < apps[1].Finish && apps[1].Finish < apps[2].Finish) {
		t.Fatalf("FCFS violated arrival order: %v %v %v",
			apps[0].Finish, apps[1].Finish, apps[2].Finish)
	}
}

func TestRRRotatesLongApps(t *testing.T) {
	// Two long apps: RR's quantum must force at least one drain/reload
	// cycle (visible as preemptions / extra PR loads vs FCFS).
	mk := func() []*appmodel.App {
		return []*appmodel.App{
			mkApp(0, workload.AN, 30, 0),
			mkApp(1, workload.AN, 30, 10*sim.Millisecond),
			mkApp(2, workload.AN, 30, 20*sim.Millisecond),
		}
	}
	fcfs := runPolicy(t, KindFCFS, mk())
	rr := runPolicy(t, KindRR, mk())
	if rr.Col.PRLoads <= fcfs.Col.PRLoads {
		t.Fatalf("RR (%d loads) did not reload more than FCFS (%d)",
			rr.Col.PRLoads, fcfs.Col.PRLoads)
	}
}

func TestNimblockBackfills(t *testing.T) {
	// Unlike FCFS, Nimblock admits a small later app when the head
	// cannot use all slots: the tiny 3DR finishes before the second
	// big OF.
	apps := []*appmodel.App{
		mkApp(0, workload.OF, 30, 0),
		mkApp(1, workload.OF, 30, 10*sim.Millisecond),
		mkApp(2, workload.ThreeDR, 5, 20*sim.Millisecond),
	}
	runPolicy(t, KindNimblock, apps)
	if apps[2].Finish >= apps[1].Finish {
		t.Fatal("Nimblock failed to backfill the small app")
	}
}

func TestNimblockSingleCoreSlowerThanVersaSlotOL(t *testing.T) {
	// Identical allocation logic; the dual-core PR server is the only
	// difference — it must not be slower.
	mk := func() []*appmodel.App {
		var out []*appmodel.App
		specs := []*appmodel.AppSpec{workload.IC, workload.AN, workload.OF, workload.LeNet}
		for i, s := range specs {
			out = append(out, mkApp(i, s, 15, sim.Duration(i)*100*sim.Millisecond))
		}
		return out
	}
	nim := runPolicy(t, KindNimblock, mk())
	ol := runPolicy(t, KindVersaSlotOL, mk())
	var nimSum, olSum sim.Duration
	for i := range nim.Col.Responses {
		nimSum += nim.Col.Responses[i].Response
		olSum += ol.Col.Responses[i].Response
	}
	if olSum >= nimSum {
		t.Fatalf("dual-core OL (%v) not faster than single-core Nimblock (%v)", olSum, nimSum)
	}
}

func TestVersaSlotBLBindsBundleableToBig(t *testing.T) {
	apps := []*appmodel.App{mkApp(0, workload.AN, 15, 0)}
	runPolicy(t, KindVersaSlotBL, apps)
	a := apps[0]
	if len(a.Stages) != 2 {
		t.Fatalf("AN should run as 2 bundles, got %d stages", len(a.Stages))
	}
	for i := range a.Stages {
		st := &a.Stages[i]
		if st.Class() != "Big" {
			t.Fatal("bundleable app not bound to Big slots")
		}
	}
}

func TestVersaSlotBLSendsLeNetToLittle(t *testing.T) {
	apps := []*appmodel.App{mkApp(0, workload.LeNet, 15, 0)}
	runPolicy(t, KindVersaSlotBL, apps)
	a := apps[0]
	if len(a.Stages) != 6 {
		t.Fatalf("LeNet should run as 6 task stages, got %d", len(a.Stages))
	}
	for i := range a.Stages {
		st := &a.Stages[i]
		if st.Class() != "Little" {
			t.Fatal("non-bundleable app placed in Big slots")
		}
	}
}

func TestVersaSlotBLRebinding(t *testing.T) {
	// First an app that takes the Big slots, then an IC that lands on
	// Little; when the Big apps leave, later arrivals bind Big again.
	// Rebinding itself is observed via a bundleable app first bound to
	// Little (Big busy) that has NOT started when Big frees.
	apps := []*appmodel.App{
		mkApp(0, workload.AN, 8, 0),                        // takes Big slots
		mkApp(1, workload.IC, 25, 20*sim.Millisecond),      // Big full -> Little
		mkApp(2, workload.OF, 25, 40*sim.Millisecond),      // Little or waits
		mkApp(3, workload.LeNet, 10, 60*sim.Millisecond),   // Little only
		mkApp(4, workload.ThreeDR, 20, 80*sim.Millisecond), // anywhere
	}
	e := runPolicy(t, KindVersaSlotBL, apps)
	for _, a := range apps {
		if a.State != appmodel.StateFinished {
			t.Fatalf("app %v unfinished", a)
		}
	}
	// The run must have used both slot kinds.
	bigUsed, littleUsed := false, false
	for _, a := range apps {
		for i := range a.Stages {
			st := &a.Stages[i]
			if st.Class() == "Big" {
				bigUsed = true
			} else {
				littleUsed = true
			}
		}
	}
	if !bigUsed || !littleUsed {
		t.Fatalf("slot kinds unused: big=%v little=%v", bigUsed, littleUsed)
	}
	_ = e
}

func TestVersaSlotBLFewerPRLoadsThanOL(t *testing.T) {
	// Bundling's whole point: 3 tasks -> 1 load. For the same
	// workload, BL must issue fewer PR loads than OL.
	mk := func() []*appmodel.App {
		var out []*appmodel.App
		for i := 0; i < 6; i++ {
			spec := []*appmodel.AppSpec{workload.IC, workload.AN, workload.OF}[i%3]
			out = append(out, mkApp(i, spec, 15, sim.Duration(i)*200*sim.Millisecond))
		}
		return out
	}
	ol := runPolicy(t, KindVersaSlotOL, mk())
	bl := runPolicy(t, KindVersaSlotBL, mk())
	if bl.Col.PRLoads >= ol.Col.PRLoads {
		t.Fatalf("BL loads (%d) not below OL loads (%d)", bl.Col.PRLoads, ol.Col.PRLoads)
	}
}

func TestPoliciesCompleteEverything(t *testing.T) {
	// Cross-policy liveness on a mixed congested workload.
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 12
	seq := workload.Generate(p, 31)
	for _, kind := range Kinds() {
		apps, err := seq.Instantiate(0)
		if err != nil {
			t.Fatal(err)
		}
		e := runPolicy(t, kind, apps)
		if got := len(e.Col.Responses); got != 12 {
			t.Errorf("%v finished %d of 12", kind, got)
		}
	}
}

func TestExtractMigratableOnlyUnstarted(t *testing.T) {
	for _, kind := range Kinds() {
		k := sim.NewKernel(1)
		repo := bitstream.NewRepository()
		bitstream.NewGenerator().GenerateAll(repo, workload.Suite())
		var cfg string
		model := hypervisor.SingleCore
		switch kind {
		case KindBaseline:
			cfg = fabric.ZCU216Monolithic
		case KindVersaSlotBL:
			cfg, model = fabric.ZCU216BigLittle, hypervisor.DualCore
		case KindVersaSlotOL:
			cfg, model = fabric.ZCU216OnlyLittle, hypervisor.DualCore
		default:
			cfg = fabric.ZCU216OnlyLittle
		}
		e := NewEngine(k, DefaultParams(), fabric.NewBoard(0, fabric.MustPlatform(cfg)), model, repo)
		e.SetPolicy(New(kind))
		// Saturate, then inject stragglers that cannot start.
		var apps []*appmodel.App
		for i := 0; i < 8; i++ {
			apps = append(apps, mkApp(i, workload.OF, 30, sim.Duration(i)*sim.Millisecond))
		}
		e.InjectSequence(apps)
		k.RunUntil(sim.Time(500 * sim.Millisecond))
		moved := e.Policy().ExtractMigratable()
		for _, a := range moved {
			if a.Started {
				t.Errorf("%v migrated a started app", kind)
			}
			for i := range a.Stages {
				st := &a.Stages[i]
				if st.Slot() != nil {
					t.Errorf("%v migrated an app holding a slot", kind)
				}
			}
		}
	}
}
