package sched

import (
	"fmt"
	"testing"

	"versaslot/internal/appmodel"
	"versaslot/internal/fabric"
	"versaslot/internal/hypervisor"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// TestStaleSlotEvents covers the slot events a fault can leave queued:
// an item's launch on the scheduler core, its completion in the kernel,
// a PCAP load on the PR core, and a fault-injected PR retry's backoff.
// Each event reads its slot's record when it fires, not a copy taken
// at submission. So, for every event and both teardowns (the slot
// fails, or its app crashes), the test queues the event for app A's
// stage, tears the slot down, recovers it, re-places app B's stage
// there when the slot allows it, and then lets the stale event fire.
// The event must neither touch B's stage nor count anything twice.
func TestStaleSlotEvents(t *testing.T) {
	type rig struct {
		t    *testing.T
		k    *sim.Kernel
		e    *Engine
		slot *fabric.Slot
		a, b *appmodel.App
	}
	// stepUntil runs events until cond holds.
	stepUntil := func(r *rig, what string, cond func() bool) {
		r.t.Helper()
		for !cond() {
			if !r.k.Step() {
				r.t.Fatalf("kernel drained before %s", what)
			}
		}
	}
	// runItemB makes B's first stage resident in the slot, launches
	// its first item behind anything stale on the scheduler core, runs
	// everything, and checks that B's item ran once, starting when B's
	// own launch job finished, and that A kept nothing.
	runItemB := func(r *rig) {
		r.t.Helper()
		stA, stB := &r.a.Stages[0], &r.b.Stages[0]
		r.e.PlaceResident(stB, r.slot)
		if !r.e.LaunchItem(stB) {
			r.t.Fatal("B's first item is not launchable after re-placement")
		}
		// B's launch is the last job on the scheduler core, so it
		// finishes when the core first goes idle.
		var launchDone sim.Time = -1
		r.e.Cores.Sched.IdleHook = func() {
			if launchDone < 0 {
				launchDone = r.k.Now()
			}
		}
		r.k.Run()
		if stB.Done() != 1 || stB.InFlight() {
			r.t.Errorf("B's stage: %d items done (in flight %t), want 1 done", stB.Done(), stB.InFlight())
		}
		if r.b.FirstStart != launchDone {
			r.t.Errorf("B's item started at %v, want %v when B's launch finished", r.b.FirstStart, launchDone)
		}
		if stA.Done() != 0 || stA.InFlight() || stA.Slot() != nil {
			r.t.Errorf("A's stage: %d items done, in flight %t, slot %v; want 0, false, nil", stA.Done(), stA.InFlight(), stA.Slot())
		}
		if stB.Slot() != r.slot || r.slot.State() != fabric.SlotLoaded {
			r.t.Errorf("slot %d: state %v, B's stage in slot %v", r.slot.ID, r.slot.State(), stB.Slot())
		}
	}
	// awaitStaleLoad checks that a slot torn down under an in-flight
	// load stays unallocatable, so nothing can be re-placed there,
	// until the stale event fires and empties it; B then loads there.
	awaitStaleLoad := func(r *rig, fired func() bool) {
		r.t.Helper()
		if r.slot.State() != fabric.SlotLoading || r.slot.Free() {
			r.t.Fatalf("slot %d is %v (free %t) under a stale load, want loading and not free", r.slot.ID, r.slot.State(), r.slot.Free())
		}
		stepUntil(r, "the stale load event fired", fired)
		if r.slot.State() != fabric.SlotEmpty || r.slot.Failed() {
			r.t.Fatalf("slot %d is %v (failed %t) after the stale load event, want empty", r.slot.ID, r.slot.State(), r.slot.Failed())
		}
		r.e.RequestPR(&r.b.Stages[0], r.slot)
		r.k.Run()
		if st := &r.b.Stages[0]; !st.Resident() || st.Slot() != r.slot {
			r.t.Errorf("B's stage is not resident in slot %d after its load", r.slot.ID)
		}
		if st := &r.a.Stages[0]; st.Slot() != nil || st.Loading() {
			r.t.Errorf("A's stage kept slot %v (loading %t)", st.Slot(), st.Loading())
		}
	}

	cases := []struct {
		event string
		// queue leaves the event queued for A's first stage.
		queue func(*rig)
		// replace re-places B after the teardown and recovery, lets
		// the stale event fire, and checks the outcome.
		replace func(*rig)
	}{
		{
			event: "launch",
			queue: func(r *rig) {
				r.e.PlaceResident(&r.a.Stages[0], r.slot)
				r.e.LaunchItem(&r.a.Stages[0])
			},
			replace: runItemB,
		},
		{
			event: "exec",
			queue: func(r *rig) {
				r.e.PlaceResident(&r.a.Stages[0], r.slot)
				r.e.LaunchItem(&r.a.Stages[0])
				stepUntil(r, "A's item started", func() bool { return r.e.rt(r.slot).execEv != sim.NoEvent })
			},
			replace: runItemB,
		},
		{
			event: "PR done",
			queue: func(r *rig) {
				r.e.RequestPR(&r.a.Stages[0], r.slot)
			},
			replace: func(r *rig) {
				awaitStaleLoad(r, func() bool { return r.slot.State() != fabric.SlotLoading })
				if got := r.e.PCAP.Stats().Loads; got != 1 {
					r.t.Errorf("PCAP recorded %d completed loads, want 1 (B's)", got)
				}
				if r.e.Col.PRLoads != 2 {
					r.t.Errorf("%d PR loads counted, want 2 (A's and B's)", r.e.Col.PRLoads)
				}
			},
		},
		{
			event: "PR retry",
			queue: func(r *rig) {
				// A's attempts fail until replace removes the model.
				r.e.SetPRFault(1, 1<<30, sim.Millisecond, 1, sim.NewRNG(3))
				r.e.RequestPR(&r.a.Stages[0], r.slot)
				stepUntil(r, "A's first retry was scheduled", func() bool { return r.e.Col.PRRetries == 1 })
			},
			replace: func(r *rig) {
				if r.e.Cores.PR.Busy() {
					r.t.Fatal("PR core busy during A's backoff")
				}
				r.e.prFault = nil // B's load must succeed
				awaitStaleLoad(r, func() bool { return r.slot.State() != fabric.SlotLoading })
				if r.e.Col.PRRetries != 1 {
					r.t.Errorf("%d PR retries counted, want 1 (the stale backoff re-streamed)", r.e.Col.PRRetries)
				}
			},
		},
	}
	teardowns := []struct {
		name string
		down func(*rig)
	}{
		{"slot-fail", func(r *rig) { r.e.FailSlot(r.slot) }},
		{"app-crash", func(r *rig) { r.e.crashApp(r.a) }},
	}
	for _, tc := range cases {
		for _, td := range teardowns {
			t.Run(fmt.Sprintf("%s/%s", tc.event, td.name), func(t *testing.T) {
				rt := newRig(t, fabric.ZCU216OnlyLittle, hypervisor.DualCore)
				e := rt.engine
				e.EnableFaultMetrics()
				r := &rig{t: t, k: rt.k, e: e, slot: e.Board.Slots[0],
					a: littleApp(1, workload.IC, 3), b: littleApp(2, workload.AN, 3)}
				e.Apps = append(e.Apps, r.a, r.b)
				tc.queue(r)
				td.down(r)
				if st := &r.a.Stages[0]; st.Slot() != nil {
					t.Fatalf("A's stage still holds slot %d after the teardown", st.Slot().ID)
				}
				e.RecoverSlot(r.slot)
				tc.replace(r)
				if _, _, _, crashed, _, _ := e.Col.FaultStats(); crashed != 1 {
					t.Errorf("%d crash-restarts counted, want 1 (A's)", crashed)
				}
			})
		}
	}
}
