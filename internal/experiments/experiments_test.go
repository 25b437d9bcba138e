package experiments

import (
	"slices"
	"testing"

	"versaslot/internal/sched"
	"versaslot/internal/workload"
)

// TestSystemsOrder guards the presentation order of the figure tables:
// the experiments' six systems are the registry's six built-ins in
// registration order, and each resolves to a registration.
func TestSystemsOrder(t *testing.T) {
	if got := sched.Names()[:6]; !slices.Equal(systems, got) {
		t.Fatalf("systems = %v, want the registry's built-ins %v", systems, got)
	}
	for _, name := range systems {
		if _, ok := sched.Lookup(name); !ok {
			t.Errorf("%q resolves to no registration", name)
		}
	}
}

// TestFig5Shape is the headline integration test: at reduced scale the
// evaluation must reproduce the paper's orderings and crossovers.
func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Quick()
	cfg.Apps = 20
	r := Fig5(cfg)

	get := func(c workload.Condition, policy string) float64 {
		return r.Lookup(c, policy).Reduction
	}

	// Standard and beyond: the paper's ranking
	// BL > OL > Nimblock > FCFS/RR > Baseline.
	for _, c := range []workload.Condition{workload.Standard, workload.Stress, workload.Realtime} {
		bl := get(c, "versaslot-bl")
		ol := get(c, "versaslot-ol")
		nim := get(c, "nimblock")
		fcfs := get(c, "fcfs")
		if !(bl > ol && ol > nim && nim > fcfs && fcfs > 1.0) {
			t.Errorf("%v ordering broken: BL=%.2f OL=%.2f Nim=%.2f FCFS=%.2f",
				c, bl, ol, nim, fcfs)
		}
	}

	// Loose: FCFS/RR below baseline (the crossover), VersaSlot near or
	// above parity.
	if get(workload.Loose, "fcfs") >= 1.0 {
		t.Errorf("Loose FCFS %.2f, expected < 1 (paper: 0.81)",
			get(workload.Loose, "fcfs"))
	}
	if get(workload.Loose, "versaslot-bl") < 0.9 {
		t.Errorf("Loose BL %.2f, expected near/above parity (paper: 1.49)",
			get(workload.Loose, "versaslot-bl"))
	}

	// Standard is where sharing wins biggest (paper: 13.66x).
	if bl := get(workload.Standard, "versaslot-bl"); bl < 5 {
		t.Errorf("Standard BL reduction %.2f, expected the large-multiple regime", bl)
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Quick()
	cfg.Apps = 20
	r := Fig6(cfg)
	for _, g := range Fig6Groups() {
		bl := r.Lookup(g, "versaslot-bl").Relative
		nim := r.Lookup(g, "nimblock").Relative
		if bl <= 0 || nim <= 0 {
			t.Fatalf("%s: missing tails", g)
		}
		// The paper's claim: BL consistently beats Nimblock on tails.
		if bl >= nim {
			t.Errorf("%s: BL tail %.2f not below Nimblock %.2f", g, bl, nim)
		}
	}
}

func TestFig7MatchesPaper(t *testing.T) {
	r := Fig7()
	if len(r.Gains) != 4 {
		t.Fatalf("expected 4 bundleable apps, got %d", len(r.Gains))
	}
	if len(r.NotBundleable) != 1 || r.NotBundleable[0] != "LeNet" {
		t.Fatalf("not-bundleable list %v, want [LeNet]", r.NotBundleable)
	}
	for _, g := range r.Gains {
		wantLUT := Fig7Paper.LUT[g.App]
		wantFF := Fig7Paper.FF[g.App]
		if d := g.LUTPct - wantLUT; d > 0.5 || d < -0.5 {
			t.Errorf("%s LUT %.1f vs paper %.1f", g.App, g.LUTPct, wantLUT)
		}
		if d := g.FFPct - wantFF; d > 0.5 || d < -0.5 {
			t.Errorf("%s FF %.1f vs paper %.1f", g.App, g.FFPct, wantFF)
		}
	}
	if r.AvgFFPct < 25 || r.AvgFFPct > 35 {
		t.Errorf("average FF gain %.1f%%, paper reports ~29%%", r.AvgFFPct)
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := DefaultFig8()
	cfg.Workloads = 1
	cfg.Apps = 60
	r := Fig8(cfg)
	// Ordering: Big.Little-only best, switching in between, Only.Little
	// the baseline (paper: 6.65 / 2.98 / 1.0).
	if !(r.BigLittleReduction > r.SwitchingReduction && r.SwitchingReduction > 1.0) {
		t.Errorf("Fig8 ordering broken: BL=%.2f switching=%.2f",
			r.BigLittleReduction, r.SwitchingReduction)
	}
	if r.Switches == 0 {
		t.Error("no cross-board switch occurred")
	}
	if len(r.Trace) == 0 {
		t.Error("empty D_switch trace")
	}
	// Overhead at the paper's millisecond scale.
	if r.MeanSwitchTime <= 0 || r.MeanSwitchTime > 50*1e6 {
		t.Errorf("switch overhead %v outside the ms scale", r.MeanSwitchTime)
	}
}

func TestTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Quick()
	cfg.Sequences = 2
	cfg.Apps = 8
	f5 := Fig5(cfg)
	if f5.Table().String() == "" || f5.RTTable().String() == "" {
		t.Fatal("fig5 tables empty")
	}
	f7 := Fig7()
	if f7.Table().String() == "" || f7.DetailTable().String() == "" {
		t.Fatal("fig7 tables empty")
	}
}
