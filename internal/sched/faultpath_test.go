package sched

import (
	"testing"

	"versaslot/internal/appmodel"
	"versaslot/internal/fabric"
	"versaslot/internal/hypervisor"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// TestFaultPathZeroAlloc pins the slot-fault path as allocation-free
// when no trace or recorder is attached: on a warm board, failing and
// recovering an empty slot, and failing a slot whose resident app is
// crash-restarted, allocate nothing.
func TestFaultPathZeroAlloc(t *testing.T) {
	r := newRig(t, fabric.ZCU216OnlyLittle, hypervisor.DualCore)
	e := r.engine
	e.EnableFaultMetrics()
	a := littleApp(1, workload.IC, 3)
	e.Apps = append(e.Apps, a)
	empty, held := e.Board.Slots[0], e.Board.Slots[1]
	cycle := func() {
		e.FailSlot(empty)
		e.RecoverSlot(empty)
		e.PlaceResident(&a.Stages[0], held)
		e.FailSlot(held)
		e.RecoverSlot(held)
		r.k.Run()
	}
	// Warm the kernel's event storage and the scheduler core's job pool.
	cycle()
	if _, _, _, crashed, _, _ := e.Col.FaultStats(); crashed != 1 {
		t.Fatalf("warm-up crashed %d apps, want 1", crashed)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("fail/recover cycle allocates %.2f times, want 0", allocs)
	}
}

// TestPRFaultRetryZeroAlloc pins a fault-injected PR retry — failed
// attempt, backoff, re-submission — as allocation-free when no sink is
// attached.
func TestPRFaultRetryZeroAlloc(t *testing.T) {
	r := newRig(t, fabric.ZCU216OnlyLittle, hypervisor.DualCore)
	e := r.engine
	e.EnableFaultMetrics()
	// Every attempt fails, and the retry bound is never reached.
	e.SetPRFault(1, 1<<30, sim.Millisecond, 1, sim.NewRNG(3))
	a := littleApp(1, workload.IC, 3)
	e.Apps = append(e.Apps, a)
	e.RequestPR(&a.Stages[0], e.Board.Slots[0])
	retry := func() {
		before := e.Col.PRRetries
		for e.Col.PRRetries == before {
			if !r.k.Step() {
				t.Fatal("kernel drained during a retry loop")
			}
		}
	}
	retry()
	if allocs := testing.AllocsPerRun(100, retry); allocs != 0 {
		t.Errorf("PR fault retry allocates %.2f times, want 0", allocs)
	}
}

// TestPRFaultRetryBound checks that the retry callback advances the
// attempt count: with every attempt failing, a load is re-streamed
// exactly maxRetries times, each after its own backoff, and then the
// app is crash-restarted.
func TestPRFaultRetryBound(t *testing.T) {
	r := newRig(t, fabric.ZCU216OnlyLittle, hypervisor.DualCore)
	e := r.engine
	e.EnableFaultMetrics()
	e.SetPRFault(1, 2, sim.Millisecond, 2, sim.NewRNG(3))
	a := littleApp(1, workload.IC, 3)
	e.Apps = append(e.Apps, a)
	e.RequestPR(&a.Stages[0], e.Board.Slots[0])
	for steps := 0; r.k.Step(); steps++ {
		if steps > 1000 {
			t.Fatalf("load still retrying after %d events (%d re-streams)", steps, e.Col.PRRetries)
		}
	}
	if e.Col.PRRetries != 2 {
		t.Errorf("load re-streamed %d times, want 2", e.Col.PRRetries)
	}
	if _, _, _, crashed, _, _ := e.Col.FaultStats(); crashed != 1 {
		t.Errorf("crash-restarted %d apps, want 1", crashed)
	}
	if s := e.Board.Slots[0]; s.State() != fabric.SlotEmpty {
		t.Errorf("slot left in state %v after the placement was abandoned", s.State())
	}
}

// TestSlotFirstUseZeroAlloc pins a slot's first use as allocation-free:
// once an engine's kernel and cores are warm (from work on another
// slot), the first PR load into a new slot, the first launch there and
// the item's completion allocate nothing, because the slot's events are
// typed views of its runtime record, not callbacks made on first use.
func TestSlotFirstUseZeroAlloc(t *testing.T) {
	type board struct {
		r    *testRig
		a, b *appmodel.App
	}
	// use loads st into slot, then launches and completes one item.
	use := func(bd board, st *appmodel.Stage, slot *fabric.Slot) {
		bd.r.engine.RequestPR(st, slot)
		bd.r.k.Run()
		if !bd.r.engine.LaunchItem(st) {
			t.Fatal("loaded stage not launchable")
		}
		bd.r.k.Run()
		if st.Done() != 1 {
			t.Fatalf("stage completed %d items, want 1", st.Done())
		}
	}
	const runs = 10
	boards := make([]board, runs+1) // AllocsPerRun calls f runs+1 times
	for i := range boards {
		bd := board{r: newRig(t, fabric.ZCU216OnlyLittle, hypervisor.DualCore),
			a: littleApp(1, workload.IC, 3), b: littleApp(2, workload.IC, 3)}
		bd.r.engine.Apps = append(bd.r.engine.Apps, bd.a, bd.b)
		use(bd, &bd.a.Stages[0], bd.r.engine.Board.Slots[0])
		boards[i] = bd
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		bd := boards[next]
		next++
		use(bd, &bd.b.Stages[0], bd.r.engine.Board.Slots[1])
	})
	if allocs != 0 {
		t.Errorf("first PR load, launch and item on a new slot allocate %.2f times, want 0", allocs)
	}
}
