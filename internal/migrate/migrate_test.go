package migrate

import (
	"testing"
	"testing/quick"

	"versaslot/internal/appmodel"
	"versaslot/internal/interlink"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

func TestDSwitchFormula(t *testing.T) {
	// (blocked/PR) * (apps/batch), from Eq. 1.
	d := DSwitch(DSwitchInputs{BlockedTasks: 10, PRTasks: 20, Apps: 4, TotalBatch: 40})
	if d != 0.05 {
		t.Fatalf("D=%v, want 0.5*0.1=0.05", d)
	}
}

func TestDSwitchClampsToUnitInterval(t *testing.T) {
	d := DSwitch(DSwitchInputs{BlockedTasks: 1000, PRTasks: 1, Apps: 10, TotalBatch: 10})
	if d != 1 {
		t.Fatalf("D=%v, want clamp at 1", d)
	}
}

func TestDSwitchZeroGuards(t *testing.T) {
	cases := []DSwitchInputs{
		{BlockedTasks: 5, PRTasks: 0, Apps: 3, TotalBatch: 30},
		{BlockedTasks: 5, PRTasks: 10, Apps: 0, TotalBatch: 30},
		{BlockedTasks: 5, PRTasks: 10, Apps: 3, TotalBatch: 0},
	}
	for i, in := range cases {
		if d := DSwitch(in); d != 0 {
			t.Errorf("case %d: D=%v, want 0", i, d)
		}
	}
}

// Property: D_switch is always within [0, 1].
func TestDSwitchBounded(t *testing.T) {
	f := func(blocked, prs uint32, apps, batch uint16) bool {
		d := DSwitch(DSwitchInputs{
			BlockedTasks: uint64(blocked),
			PRTasks:      uint64(prs),
			Apps:         int(apps),
			TotalBatch:   int(batch),
		})
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGatherCandidates(t *testing.T) {
	apps := []*appmodel.App{
		appmodel.NewApp(0, workload.IC, 10, 0),
		appmodel.NewApp(1, workload.AN, 20, 0),
		appmodel.NewApp(2, workload.OF, 30, 0),
	}
	apps[0].State = appmodel.StateWaiting
	apps[1].State = appmodel.StateRunning
	apps[2].State = appmodel.StateFinished // excluded
	n, batch := GatherCandidates(apps)
	if n != 2 || batch != 30 {
		t.Fatalf("candidates %d/%d, want 2/30", n, batch)
	}
}

func TestTriggerHysteresis(t *testing.T) {
	tr := NewTrigger(Base, 0.1, 0.0125)
	// Below both thresholds: stay.
	if d := tr.Observe(0.005); d == Switch {
		t.Fatal("switched below thresholds")
	}
	// Rising through the buffer zone: prewarm, not switch.
	if d := tr.Observe(0.05); d != Prewarm {
		t.Fatalf("rising in buffer zone: %v, want prewarm", d)
	}
	// Crossing T1: switch to Big.Little.
	if d := tr.Observe(0.12); d != Switch {
		t.Fatal("did not switch at T1")
	}
	if tr.Mode() != Boost {
		t.Fatal("mode did not flip")
	}
	// Still above T2: no switch back (hysteresis).
	if d := tr.Observe(0.05); d == Switch {
		t.Fatal("chattered inside the band")
	}
	// Falling to T2: switch back.
	if d := tr.Observe(0.01); d != Switch {
		t.Fatal("did not switch back at T2")
	}
	if tr.Mode() != Base {
		t.Fatal("mode did not flip back")
	}
}

func TestTriggerPrewarmDirection(t *testing.T) {
	tr := NewTrigger(Boost, 0.1, 0.0125)
	if tr.Target() != Base {
		t.Fatal("target of Boost must be Base")
	}
	// Falling inside the band: anticipate Only.Little.
	tr.Observe(0.09)
	if d := tr.Observe(0.05); d != Prewarm {
		t.Fatalf("falling in band: %v", d)
	}
}

// Property: feeding any sample sequence never produces two consecutive
// Switch decisions without the value crossing the opposite threshold.
func TestTriggerNoChatter(t *testing.T) {
	f := func(raw []uint8) bool {
		tr := NewTrigger(Base, 0.1, 0.0125)
		lastSwitch := -1
		for i, v := range raw {
			d := float64(v) / 255.0
			if tr.Observe(d) == Switch {
				if lastSwitch >= 0 && i == lastSwitch {
					return false
				}
				lastSwitch = i
			}
		}
		// Hysteresis invariant: at most one switch per crossing; since
		// observations alternate regimes only via thresholds, mode and
		// last observation must be consistent.
		if tr.Mode() == Boost && tr.Last() <= 0.0125 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTriggerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverted thresholds did not panic")
		}
	}()
	NewTrigger(Base, 0.01, 0.1)
}

func TestTriggerRejectsUnknownMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range trigger mode did not panic")
		}
	}()
	NewTrigger(Mode(7), 0.1, 0.0125)
}

func TestBuildPayload(t *testing.T) {
	a := appmodel.NewApp(0, workload.IC, 10, 0)
	a.Install(appmodel.TaskPlan(a.Spec, "Little", 1.0, func(int) string { return "b" }))
	p := BuildPayload([]*appmodel.App{a})
	want := int64(DescriptorBytes) + 10*workload.IC.ItemBytes
	if p.Bytes != want {
		t.Fatalf("payload %d, want %d", p.Bytes, want)
	}
	// Items already through the first stage do not travel.
	a.Stages[0].SetDone(4)
	p = BuildPayload([]*appmodel.App{a})
	want = int64(DescriptorBytes) + 6*workload.IC.ItemBytes
	if p.Bytes != want {
		t.Fatalf("payload after progress %d, want %d", p.Bytes, want)
	}
}

func TestExecuteDeliversAndRecords(t *testing.T) {
	k := sim.NewKernel(1)
	link := interlink.NewDefault(k, "test")
	a := appmodel.NewApp(0, workload.ThreeDR, 8, 0)
	a.Install(appmodel.TaskPlan(a.Spec, "Little", 1.0, func(int) string { return "b" }))
	a.Stages[0].SetDone(3) // progress must survive
	a.State = appmodel.StateWaiting

	var delivered []*appmodel.App
	var rec Migration
	Execute(k, link, []*appmodel.App{a}, func(apps []*appmodel.App) {
		delivered = apps
	}, func(m Migration) { rec = m })

	if a.State != appmodel.StateMigrating {
		t.Fatal("app not marked migrating during transfer")
	}
	k.Run()
	if len(delivered) != 1 || delivered[0] != a {
		t.Fatal("app not delivered")
	}
	if a.State != appmodel.StateWaiting {
		t.Fatal("app state not restored")
	}
	if a.Stages[0].Done() != 3 {
		t.Fatal("migration lost completed work")
	}
	if a.Migrated != 1 {
		t.Fatal("migration count not incremented")
	}
	if rec.Apps != 1 || rec.Bytes <= 0 || rec.Duration <= 0 {
		t.Fatalf("bad migration record: %+v", rec)
	}
	// The paper's overhead scale: ~1 ms for a small payload.
	if rec.Duration > 20*sim.Millisecond {
		t.Fatalf("switching overhead %v far above the paper's ~1.13ms scale", rec.Duration)
	}
}
