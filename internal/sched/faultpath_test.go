package sched

import (
	"testing"

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
		e.PlaceResident(a.Stages[0], held)
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
// attempt, backoff, re-submission — as allocation-free once the slot's
// callbacks are bound and no sink is attached.
func TestPRFaultRetryZeroAlloc(t *testing.T) {
	r := newRig(t, fabric.ZCU216OnlyLittle, hypervisor.DualCore)
	e := r.engine
	e.EnableFaultMetrics()
	// Every attempt fails, and the retry bound is never reached.
	e.SetPRFault(1, 1<<30, sim.Millisecond, 1, sim.NewRNG(3))
	a := littleApp(1, workload.IC, 3)
	e.Apps = append(e.Apps, a)
	e.RequestPR(a.Stages[0], e.Board.Slots[0])
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
	e.RequestPR(a.Stages[0], e.Board.Slots[0])
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
