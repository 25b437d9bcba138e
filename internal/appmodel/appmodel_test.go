package appmodel

import (
	"testing"
	"unsafe"

	"versaslot/internal/fabric"
	"versaslot/internal/sim"
)

func testSpec(times ...int) *AppSpec {
	spec := &AppSpec{Name: "T", EtaLUT: 0.9, EtaFF: 0.9, MonoFactor: 0.8, ItemBytes: 1024}
	for i, ms := range times {
		spec.Tasks = append(spec.Tasks, TaskSpec{
			Name: string(rune('a' + i)),
			Time: sim.Duration(ms) * sim.Millisecond,
			Impl: fabric.ResVec{LUT: 10000 * (i + 1), FF: 20000 * (i + 1)},
		})
	}
	return spec
}

func TestSpecAggregates(t *testing.T) {
	spec := testSpec(10, 30, 20)
	if spec.TaskCount() != 3 {
		t.Fatal("TaskCount")
	}
	if spec.TotalItemTime() != 60*sim.Millisecond {
		t.Fatalf("TotalItemTime %v", spec.TotalItemTime())
	}
	if spec.BottleneckTime() != 30*sim.Millisecond {
		t.Fatalf("BottleneckTime %v", spec.BottleneckTime())
	}
}

func TestNewAppValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero batch did not panic")
		}
	}()
	NewApp(1, testSpec(10), 0, 0)
}

func TestAppLifecycle(t *testing.T) {
	a := NewApp(1, testSpec(10, 20), 5, sim.Time(100*sim.Millisecond))
	if a.State != StatePending {
		t.Fatal("new app not pending")
	}
	a.Install(TaskPlan(a.Spec, "Little", 1.0, func(i int) string { return "bits" }))
	if a.Done() {
		t.Fatal("fresh app done")
	}
	if a.RemainingItems() != 10 {
		t.Fatalf("remaining %d, want 10", a.RemainingItems())
	}
	if a.UnfinishedStages() != 2 {
		t.Fatal("unfinished stages")
	}
	a.Stages[0].SetDone(5)
	a.Stages[1].SetDone(5)
	if !a.Done() {
		t.Fatal("completed app not done")
	}
	a.State = StateFinished
	a.Finish = sim.Time(600 * sim.Millisecond)
	if a.ResponseTime() != 500*sim.Millisecond {
		t.Fatalf("response %v", a.ResponseTime())
	}
}

func TestResponseTimePanicsUnfinished(t *testing.T) {
	a := NewApp(1, testSpec(10), 5, 0)
	defer func() {
		if recover() == nil {
			t.Error("ResponseTime on unfinished app did not panic")
		}
	}()
	a.ResponseTime()
}

func TestTaskStages(t *testing.T) {
	a := NewApp(1, testSpec(10, 20, 30), 4, 0)
	a.Install(TaskPlan(a.Spec, "Little", 1.0, func(i int) string { return "b" }))
	if len(a.Stages) != 3 {
		t.Fatal("stage count")
	}
	for i := range a.Stages {
		st := &a.Stages[i]
		if st.Index() != i || st.FirstTask() != i || st.TaskCount() != 1 {
			t.Fatalf("stage %d identity wrong", i)
		}
		if st.Class() != "Little" || st.Mode() != NoBundle {
			t.Fatalf("stage %d class/mode wrong", i)
		}
		want := a.Spec.Tasks[i].Time
		if st.ItemTime(0) != want || st.ItemTime(3) != want {
			t.Fatalf("stage %d item time", i)
		}
	}
}

func TestTaskStagesTimeScale(t *testing.T) {
	a := NewApp(1, testSpec(100), 1, 0)
	a.Install(TaskPlan(a.Spec, "Little", 0.8, func(i int) string { return "b" }))
	if a.Stages[0].ItemTime(0) != 80*sim.Millisecond {
		t.Fatalf("mono scaling: %v", a.Stages[0].ItemTime(0))
	}
}

func TestBundleStagesParallelTiming(t *testing.T) {
	a := NewApp(1, testSpec(10, 30, 20), 8, 0)
	a.Install(BundlePlan(a.Spec, "Big", 3, []BundleMode{BundleParallel},
		func(b int, m BundleMode) string { return "bundle" }))
	if len(a.Stages) != 1 {
		t.Fatal("bundle count")
	}
	st := &a.Stages[0]
	ii := sim.Duration(float64(30*sim.Millisecond) * BundleParallelFactor)
	if st.SteadyItemTime() != ii {
		t.Fatalf("steady II %v, want %v", st.SteadyItemTime(), ii)
	}
	if st.ItemTime(0) != 3*ii {
		t.Fatalf("first item %v, want fill %v", st.ItemTime(0), 3*ii)
	}
	// Total batch time: the paper's Tmax*(N+2) with the effective II.
	want := st.ItemTime(0) + 7*ii
	if st.BatchTime(8) != want {
		t.Fatalf("batch time %v, want %v", st.BatchTime(8), want)
	}
}

func TestBundleStagesSerialTiming(t *testing.T) {
	a := NewApp(1, testSpec(10, 30, 20), 5, 0)
	a.Install(BundlePlan(a.Spec, "Big", 3, []BundleMode{BundleSerial},
		func(b int, m BundleMode) string { return "bundle" }))
	st := &a.Stages[0]
	want := sim.Duration(float64(60*sim.Millisecond) * BundleSerialFactor)
	if st.ItemTime(0) != want || st.SteadyItemTime() != want {
		t.Fatalf("serial per-item %v/%v, want %v", st.ItemTime(0), st.SteadyItemTime(), want)
	}
}

func TestBundleStagesValidation(t *testing.T) {
	a := NewApp(1, testSpec(10, 20), 5, 0) // 2 tasks: not divisible by 3
	defer func() {
		if recover() == nil {
			t.Error("indivisible bundle did not panic")
		}
	}()
	a.Install(BundlePlan(a.Spec, "Big", 3, []BundleMode{BundleParallel}, func(int, BundleMode) string { return "" }))
}

func TestNextItemReadyDependencies(t *testing.T) {
	a := NewApp(1, testSpec(10, 20), 3, 0)
	a.Install(TaskPlan(a.Spec, "Little", 1.0, func(int) string { return "b" }))
	s0, s1 := &a.Stages[0], &a.Stages[1]
	if !s0.NextItemReady() {
		t.Fatal("first stage should be ready")
	}
	if s1.NextItemReady() {
		t.Fatal("second stage ready without input")
	}
	s0.SetDone(1)
	if !s1.NextItemReady() {
		t.Fatal("second stage not ready after upstream item")
	}
	s1.SetDone(1)
	if s1.NextItemReady() {
		t.Fatal("stage ready without fresh input")
	}
	s1.SetInFlight(true)
	s0.SetDone(2)
	if s1.NextItemReady() {
		t.Fatal("in-flight stage reported ready")
	}
	s1.SetInFlight(false)
	s1.SetDone(3)
	if s1.NextItemReady() {
		t.Fatal("finished stage reported ready")
	}
}

func TestStageImplRes(t *testing.T) {
	a := NewApp(1, testSpec(10, 20, 30), 3, 0)
	a.Install(TaskPlan(a.Spec, "Little", 1.0, func(int) string { return "b" }))
	if a.Stages[1].ImplRes() != a.Spec.Tasks[1].Impl {
		t.Fatal("task stage resources")
	}
	a.Install(BundlePlan(a.Spec, "Big", 3, []BundleMode{BundleParallel}, func(int, BundleMode) string { return "b" }))
	res := a.Stages[0].ImplRes()
	rawLUT := 10000 + 20000 + 30000
	want := int(float64(rawLUT)*0.9 + 0.5)
	if res.LUT != want {
		t.Fatalf("bundle LUT %d, want %d", res.LUT, want)
	}
}

func TestResetStagesPreservesProgress(t *testing.T) {
	a := NewApp(1, testSpec(10, 20), 4, 0)
	a.Install(TaskPlan(a.Spec, "Little", 1.0, func(int) string { return "b" }))
	slot := &fabric.Slot{ID: 0, Class: fabric.LittleClass}
	a.Stages[0].Attach(slot)
	a.Stages[0].SetDone(2)
	a.Stages[0].SetInFlight(true)
	a.Stages[0].SetLoading(true)
	ResetStages(a)
	st := &a.Stages[0]
	if st.Slot() != nil || st.InFlight() || st.Loading() {
		t.Fatal("runtime state not cleared")
	}
	if st.Done() != 2 {
		t.Fatal("completed work lost — migration must not redo items")
	}
}

func TestBundleTimingMatchesPaperFormula(t *testing.T) {
	// Paper criterion quantities: parallel total = Tmax*(N+2) and
	// serial total = (T1+T2+T3)*N, in effective (factored) time.
	spec := testSpec(40, 22, 18)
	n := 13
	pF, pR := BundleTiming(spec, 3, 0, BundleParallel)
	parTotal := pF + sim.Duration(n-1)*pR
	wantPar := sim.Duration(float64(40*sim.Millisecond)*BundleParallelFactor) * sim.Duration(n+2)
	if parTotal != wantPar {
		t.Fatalf("parallel total %v, want %v", parTotal, wantPar)
	}
	sF, sR := BundleTiming(spec, 3, 0, BundleSerial)
	serTotal := sF + sim.Duration(n-1)*sR
	wantSer := sim.Duration(float64(80*sim.Millisecond)*BundleSerialFactor) * sim.Duration(n)
	if serTotal != wantSer {
		t.Fatalf("serial total %v, want %v", serTotal, wantSer)
	}
}

func TestEvict(t *testing.T) {
	a := NewApp(1, testSpec(10), 2, 0)
	a.Install(TaskPlan(a.Spec, "Little", 1.0, func(int) string { return "b" }))
	st := &a.Stages[0]
	st.Attach(&fabric.Slot{})
	st.SetLoading(true)
	st.Evict()
	if st.Slot() != nil || st.Loading() {
		t.Fatal("evict incomplete")
	}
}

// TestAppStageCounters drives every stage mutator and checks the app's
// O(1) held/unplaced counters against a recount after each.
func TestAppStageCounters(t *testing.T) {
	a := NewApp(1, testSpec(10, 20, 30), 2, 0)
	check := func(step string) {
		t.Helper()
		held, unplaced := 0, 0
		for i := range a.Stages {
			st := &a.Stages[i]
			if st.Slot() != nil {
				held++
			} else if !st.Finished() {
				unplaced++
			}
		}
		if a.HeldSlots() != held || a.UnplacedStages() != unplaced {
			t.Fatalf("%s: held/unplaced %d/%d, recount %d/%d",
				step, a.HeldSlots(), a.UnplacedStages(), held, unplaced)
		}
	}
	check("no plan")
	a.Install(TaskPlan(a.Spec, "Little", 1.0, func(int) string { return "b" }))
	check("built")
	s0, s1, s2 := &a.Stages[0], &a.Stages[1], &a.Stages[2]
	slot := &fabric.Slot{}
	s0.Attach(slot)
	s0.Attach(slot) // re-attach: no double count
	check("attach")
	s0.CompleteItem()
	s0.CompleteItem()
	check("finish attached")
	s0.Evict()
	check("evict finished")
	s1.CompleteItem()
	s1.CompleteItem()
	check("finish unplaced")
	s1.SetDone(0)
	check("rewind unplaced")
	s2.Attach(slot)
	s2.SetDone(2)
	s2.SetDone(0)
	check("rewind attached")
	ResetStages(a)
	check("reset")
	s1.Evict() // already detached: no-op
	check("evict detached")
	a.Install(BundlePlan(a.Spec, "Big", 3, []BundleMode{BundleSerial}, func(int, BundleMode) string { return "b" }))
	check("rebuilt")
}

// TestStageSize pins a stage's per-app part at 40 bytes: everything
// fixed lives in the shared StageDef, so an installed plan is one
// small allocation.
func TestStageSize(t *testing.T) {
	if n := unsafe.Sizeof(Stage{}); n > 40 {
		t.Fatalf("Stage is %d bytes, want <= 40", n)
	}
}

// TestStageBuffer checks that the first Install takes its stages from
// the buffer UseStageBuffer handed over, and that a re-install, or a
// plan longer than the buffer, gets fresh memory instead of aliasing
// stages a slot may still point at.
func TestStageBuffer(t *testing.T) {
	spec := testSpec(5, 6, 7)
	plan := TaskPlan(spec, "Little", 1, func(int) string { return "x" })
	buf := make([]Stage, 3)
	a := NewApp(1, spec, 2, 0)
	a.UseStageBuffer(buf)
	a.Install(plan)
	if &a.Stages[0] != &buf[0] || len(a.Stages) != 3 {
		t.Fatal("first Install did not take its stages from the buffer")
	}
	first := &a.Stages[0]
	a.Install(plan)
	if &a.Stages[0] == first {
		t.Fatal("re-install reused the stages of the first plan")
	}
	short := NewApp(2, spec, 2, 0)
	short.UseStageBuffer(make([]Stage, 2))
	short.Install(plan)
	if len(short.Stages) != 3 || short.UnplacedStages() != 3 {
		t.Fatalf("plan longer than the buffer installed %d stages", len(short.Stages))
	}
}

func TestStateStrings(t *testing.T) {
	states := []State{StatePending, StateWaiting, StateReady, StateRunning, StateMigrating, StateFinished}
	seen := map[string]bool{}
	for _, s := range states {
		str := s.String()
		if str == "" || seen[str] {
			t.Fatalf("bad state string %q", str)
		}
		seen[str] = true
	}
}
