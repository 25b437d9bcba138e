package bundle

import (
	"testing"

	"versaslot/internal/appmodel"
	"versaslot/internal/bitstream"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

func TestCanBundleSuite(t *testing.T) {
	want := map[string]bool{"3DR": true, "LeNet": false, "IC": true, "AN": true, "OF": true}
	for _, spec := range workload.Suite() {
		if got := CanBundle(spec); got != want[spec.Name] {
			t.Errorf("CanBundle(%s)=%v, want %v", spec.Name, got, want[spec.Name])
		}
	}
}

func TestCanBundleRequiresDivisibility(t *testing.T) {
	spec := &appmodel.AppSpec{
		Name:   "odd",
		EtaLUT: 0.9, EtaFF: 0.9,
		Tasks: make([]appmodel.TaskSpec, 4), // 4 % 3 != 0
	}
	if CanBundle(spec) {
		t.Fatal("4-task app bundled")
	}
	if CanBundle(&appmodel.AppSpec{Name: "empty"}) {
		t.Fatal("empty app bundled")
	}
}

func TestCount(t *testing.T) {
	if Count(workload.OF) != 3 {
		t.Fatalf("OF bundles %d, want 3", Count(workload.OF))
	}
	if Count(workload.LeNet) != 0 {
		t.Fatal("LeNet bundle count not 0")
	}
}

func TestSelectModeSmallBatchSerial(t *testing.T) {
	// With batch 1 the parallel pipeline's fill cannot amortize:
	// serial must win whenever serial-total < parallel-fill-total.
	for _, spec := range []*appmodel.AppSpec{workload.IC, workload.AN} {
		m := SelectMode(spec, 0, 1)
		pF, _ := appmodel.BundleTiming(spec, Size, 0, appmodel.BundleParallel)
		sF, _ := appmodel.BundleTiming(spec, Size, 0, appmodel.BundleSerial)
		if sF < pF && m != appmodel.BundleSerial {
			t.Errorf("%s batch=1: serial cheaper but %v selected", spec.Name, m)
		}
	}
}

func TestSelectModeLargeBatchParallel(t *testing.T) {
	// At batch 30 the initiation-interval advantage dominates.
	for _, spec := range []*appmodel.AppSpec{workload.ThreeDR, workload.IC, workload.AN, workload.OF} {
		for b := 0; b < Count(spec); b++ {
			if m := SelectMode(spec, b, 30); m != appmodel.BundleParallel {
				t.Errorf("%s bundle %d at batch 30: %v, want parallel", spec.Name, b, m)
			}
		}
	}
}

func TestSelectModeMatchesTotals(t *testing.T) {
	// The selected mode always has the smaller total batch time.
	for _, spec := range []*appmodel.AppSpec{workload.ThreeDR, workload.IC, workload.AN, workload.OF} {
		for batch := 1; batch <= 30; batch++ {
			for b := 0; b < Count(spec); b++ {
				m := SelectMode(spec, b, batch)
				pF, pR := appmodel.BundleTiming(spec, Size, b, appmodel.BundleParallel)
				sF, sR := appmodel.BundleTiming(spec, Size, b, appmodel.BundleSerial)
				par := pF + sim.Duration(batch-1)*pR
				ser := sF + sim.Duration(batch-1)*sR
				if m == appmodel.BundleParallel && par > ser {
					t.Fatalf("%s b=%d batch=%d: parallel selected but slower", spec.Name, b, batch)
				}
				if m == appmodel.BundleSerial && ser > par {
					t.Fatalf("%s b=%d batch=%d: serial selected but slower", spec.Name, b, batch)
				}
			}
		}
	}
}

func TestBuildInstallsBundleStages(t *testing.T) {
	a := appmodel.NewApp(1, workload.OF, 12, 0)
	Build(a, "Big")
	if len(a.Stages) != 3 {
		t.Fatalf("OF bundle stages %d", len(a.Stages))
	}
	for i := range a.Stages {
		st := &a.Stages[i]
		if st.Class() != "Big" {
			t.Fatalf("bundle stage %d not Big", i)
		}
		if st.TaskCount() != 3 || st.FirstTask() != i*3 {
			t.Fatalf("bundle stage %d covers wrong tasks", i)
		}
		if st.BitstreamName() == "" {
			t.Fatal("bundle stage missing bitstream")
		}
	}
}

func TestBuildLittleInstallsTaskStages(t *testing.T) {
	a := appmodel.NewApp(1, workload.LeNet, 5, 0)
	BuildTasks(a, "Little")
	if len(a.Stages) != 6 {
		t.Fatalf("LeNet task stages %d", len(a.Stages))
	}
	for i := range a.Stages {
		st := &a.Stages[i]
		if st.Class() != "Little" || st.Mode() != appmodel.NoBundle {
			t.Fatal("little stage wrong class/mode")
		}
	}
}

// TestPlansShared checks that apps with the same plan key share one
// set of stage definitions while each keeps its own run state, and
// that a different batch gets its own bundle plan.
func TestPlansShared(t *testing.T) {
	a := appmodel.NewApp(1, workload.OF, 12, 0)
	b := appmodel.NewApp(2, workload.OF, 12, 0)
	c := appmodel.NewApp(3, workload.OF, 13, 0)
	for _, build := range []func(*appmodel.App){
		func(x *appmodel.App) { BuildTasks(x, "Little") },
		func(x *appmodel.App) { Build(x, "Big") },
		func(x *appmodel.App) { BuildMonolithic(x, "Little") },
	} {
		build(a)
		build(b)
		for i := range a.Stages {
			if a.Stages[i].StageDef != b.Stages[i].StageDef {
				t.Fatalf("stage %d: apps with the same key got separate definitions", i)
			}
		}
		a.Stages[0].SetDone(1)
		if b.Stages[0].Done() != 0 {
			t.Fatal("run state leaked between apps sharing a plan")
		}
	}
	Build(a, "Big")
	Build(c, "Big")
	if a.Stages[0].StageDef == c.Stages[0].StageDef {
		t.Fatal("bundle plans of different batches share definitions")
	}
}

// TestInstallAllocs pins installing a cached plan: an app from
// Sequence.Instantiate takes its first plan's run state from the
// sequence's stage block and allocates nothing, and a re-install
// allocates the one fresh run-state slice, the definitions shared.
func TestInstallAllocs(t *testing.T) {
	const runs = 20
	seq := &workload.Sequence{Arrivals: make([]workload.Arrival, runs+1)}
	for i := range seq.Arrivals {
		seq.Arrivals[i] = workload.Arrival{Spec: workload.OF.Name, Batch: 12}
	}
	for _, c := range []struct {
		name  string
		build func(*appmodel.App)
	}{
		{"tasks", func(a *appmodel.App) { BuildTasks(a, "Little") }},
		{"bundles", func(a *appmodel.App) { Build(a, "Big") }},
		{"monolithic", func(a *appmodel.App) { BuildMonolithic(a, "Little") }},
	} {
		apps, err := seq.Instantiate(0)
		if err != nil {
			t.Fatal(err)
		}
		c.build(appmodel.NewApp(0, workload.OF, 12, 0)) // cache the plan
		next := 0
		if n := testing.AllocsPerRun(runs, func() { c.build(apps[next]); next++ }); n != 0 {
			t.Errorf("%s: a first install allocates %.0f times, want 0", c.name, n)
		}
		if n := testing.AllocsPerRun(100, func() { c.build(apps[0]) }); n != 1 {
			t.Errorf("%s: a re-install allocates %.0f times, want 1", c.name, n)
		}
	}
}

// TestBuildMonolithic checks the exclusive baseline's plan: one stage
// per task, all loaded from the full-fabric bitstream, timed with the
// spec's MonoFactor.
func TestBuildMonolithic(t *testing.T) {
	spec := workload.IC
	a := appmodel.NewApp(1, spec, 4, 0)
	BuildMonolithic(a, "Little")
	if len(a.Stages) != len(spec.Tasks) {
		t.Fatalf("IC monolithic stages %d", len(a.Stages))
	}
	for i := range a.Stages {
		st := &a.Stages[i]
		if st.BitstreamName() != bitstream.FullName(spec.Name) || st.Class() != "Little" {
			t.Fatalf("stage %d: bitstream %q class %q", i, st.BitstreamName(), st.Class())
		}
		if want := sim.Duration(float64(spec.Tasks[i].Time) * spec.MonoFactor); st.ItemTime(0) != want {
			t.Fatalf("stage %d item time %v, want %v", i, st.ItemTime(0), want)
		}
	}
}

func TestMeasureUtilGainMatchesPaper(t *testing.T) {
	want := map[string][2]float64{
		"IC":  {42.2, 48.0},
		"AN":  {36.4, 41.4},
		"3DR": {9.9, 17.7},
		"OF":  {9.6, 14.1},
	}
	for name, w := range want {
		gain, ok := MeasureUtilGain(workload.SpecByName(name))
		if !ok {
			t.Fatalf("%s reported not bundleable", name)
		}
		if d := gain.LUTPct - w[0]; d > 0.5 || d < -0.5 {
			t.Errorf("%s LUT gain %.1f%%, paper %.1f%%", name, gain.LUTPct, w[0])
		}
		if d := gain.FFPct - w[1]; d > 0.5 || d < -0.5 {
			t.Errorf("%s FF gain %.1f%%, paper %.1f%%", name, gain.FFPct, w[1])
		}
	}
	if _, ok := MeasureUtilGain(workload.LeNet); ok {
		t.Fatal("LeNet gain measured; it cannot bundle")
	}
}

func TestMeasureUtilGainICDetail(t *testing.T) {
	gain, _ := MeasureUtilGain(workload.IC)
	b := gain.Bundles[0]
	if d := b.AvgLUT - 0.41; d > 0.01 || d < -0.01 {
		t.Errorf("IC bundle1 member average %.3f, paper 0.41", b.AvgLUT)
	}
	// Paper figure shows 0.6; the exact eta-consistent value is 0.583.
	if b.BundleLUT < 0.55 || b.BundleLUT > 0.62 {
		t.Errorf("IC bundle1 LUT util %.3f, paper ~0.6", b.BundleLUT)
	}
	if len(b.MemberLUT) != 3 {
		t.Fatal("member count")
	}
}

func TestModesLength(t *testing.T) {
	modes := Modes(workload.AN, 20)
	if len(modes) != 2 {
		t.Fatalf("AN modes %d", len(modes))
	}
	if len(Modes(workload.LeNet, 20)) != 0 {
		t.Fatal("LeNet modes not empty")
	}
}
