package sched

import (
	"testing"

	"versaslot/internal/appmodel"
	"versaslot/internal/bitstream"
	"versaslot/internal/fabric"
	"versaslot/internal/hypervisor"
	"versaslot/internal/sim"
)

// bundleOnlySpec has one task too large for a Little slot while its
// triple still consolidates into a Big slot — so the app is hostable
// only through bundling. The generator emits no Little partial for the
// oversized task; the policy must not build (or plan) a little-class
// pipeline for such an app.
func bundleOnlySpec() *appmodel.AppSpec {
	return &appmodel.AppSpec{
		Name: "BundleOnly", EtaLUT: 1, EtaFF: 1, MonoFactor: 0.8, ItemBytes: 1024,
		Tasks: []appmodel.TaskSpec{
			{Name: "wide", Time: 20 * sim.Millisecond, Impl: fabric.ResVec{LUT: 50_000, FF: 100_000}},
			{Name: "a", Time: 10 * sim.Millisecond, Impl: fabric.ResVec{LUT: 10_000, FF: 20_000}},
			{Name: "b", Time: 10 * sim.Millisecond, Impl: fabric.ResVec{LUT: 10_000, FF: 20_000}},
		},
	}
}

// TestVersaSlotBLBundleOnlyApp: an app admitted via the bundle-only
// escape of the hostability check must execute in big-class slots to
// completion instead of panicking on the missing little-class partial.
func TestVersaSlotBLBundleOnlyApp(t *testing.T) {
	spec := bundleOnlySpec()
	if spec.Tasks[0].Impl.FitsIn(fabric.LittleSlotCap) {
		t.Fatal("test spec's wide task unexpectedly fits a Little slot")
	}
	repo := bitstream.NewRepository()
	bitstream.NewGenerator().GenerateApp(repo, spec)
	k := sim.NewKernel(1)
	e := NewEngine(k, DefaultParams(), fabric.NewBoard(0, fabric.MustPlatform(fabric.ZCU216BigLittle)), hypervisor.DualCore, repo)
	p := NewVersaSlotBL()
	e.SetPolicy(p)
	a := mkApp(0, spec, 4, 0)
	e.InjectNow(a)
	k.Run()
	e.FlushResidency()
	if n := e.UnfinishedCount(); n != 0 {
		t.Fatalf("%d apps unfinished", n)
	}
	for i := range a.Stages {
		st := &a.Stages[i]
		if st.Class() != "Big" {
			t.Fatalf("stage %v ran in class %q, want Big", st, st.Class())
		}
	}
}
