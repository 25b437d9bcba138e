package core

import (
	"fmt"
	"testing"

	"versaslot/internal/cluster"
	"versaslot/internal/fabric"
	"versaslot/internal/fault"
	"versaslot/internal/migrate"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// auditCounters recounts by brute force what the O(1) occupancy
// counters claim — each board's allocatable slots per class
// (Board.CountEmpty) and each app's held, unplaced, finished and
// held-finished stages (App.HeldSlots, App.UnplacedStages,
// App.UnfinishedStages and Done, App.HeldFinishedStages) — and fails
// on any mismatch. It
// also checks the wake flag Engine.Pump skips on: an active app whose
// flag is clear has no launchable stage.
func auditCounters(t *testing.T, engines []*sched.Engine) {
	t.Helper()
	for _, e := range engines {
		b := e.Board
		for _, c := range b.Platform.Classes {
			n := 0
			for _, s := range b.Slots {
				if s.Class.Name == c.Name && s.State() == fabric.SlotEmpty && !s.Failed() {
					n++
				}
			}
			if got := b.CountEmpty(c.Name); got != n {
				t.Fatalf("%v board %d: CountEmpty(%s) = %d, recount %d", e.Now(), b.ID, c.Name, got, n)
			}
		}
		for _, a := range e.Apps {
			held, unplaced, finished, heldFinished := 0, 0, 0, 0
			for i := range a.Stages {
				st := &a.Stages[i]
				if st.Finished() {
					finished++
				}
				if st.Slot() != nil {
					held++
					if st.Finished() {
						heldFinished++
					}
				} else if !st.Finished() {
					unplaced++
				}
			}
			if a.HeldSlots() != held || a.UnplacedStages() != unplaced {
				t.Fatalf("%v app %v: held/unplaced %d/%d, recount %d/%d",
					e.Now(), a, a.HeldSlots(), a.UnplacedStages(), held, unplaced)
			}
			done := len(a.Stages) > 0 && finished == len(a.Stages)
			if a.UnfinishedStages() != len(a.Stages)-finished || a.HeldFinishedStages() != heldFinished || a.Done() != done {
				t.Fatalf("%v app %v: unfinished/held-finished/done %d/%d/%v, recount %d/%d/%v",
					e.Now(), a, a.UnfinishedStages(), a.HeldFinishedStages(), a.Done(),
					len(a.Stages)-finished, heldFinished, done)
			}
		}
		for _, a := range e.Active {
			if a.Woken() {
				continue
			}
			for i := range a.Stages {
				st := &a.Stages[i]
				if st.Launchable() {
					t.Fatalf("%v app %v: stage %d launchable but the app is not woken", e.Now(), a, st.Index())
				}
			}
		}
	}
}

// stepAudited runs k to completion, auditing the counters after every
// event.
func stepAudited(t *testing.T, k *sim.Kernel, engines []*sched.Engine) {
	t.Helper()
	for k.Step() {
		auditCounters(t, engines)
	}
}

// chaosInjectors strikes often enough that a short stress run sees
// every fault path: slot and board failures (scrubs, aborted loads,
// crash restarts), exhausted PR retries, and straggling slots.
func chaosInjectors() []fault.InjectorSpec {
	return []fault.InjectorSpec{
		{Kind: fault.KindSlotFail, MTBF: 3 * sim.Second, MTTR: 300 * sim.Millisecond},
		{Kind: fault.KindBoardFail, MTBF: 8 * sim.Second, MTTR: 500 * sim.Millisecond},
		{Kind: fault.KindPRFlaky, Rate: 0.3, MaxRetries: 2, Backoff: sim.Millisecond, BackoffFactor: 2},
		{Kind: fault.KindStraggler, MTBF: 4 * sim.Second, MTTR: 400 * sim.Millisecond, Factor: 2},
	}
}

// TestCounterAudit checks the occupancy counters the scheduling passes
// read in O(1) against a recount, and the launch wake flag against a
// scan of every stage, after every kernel event: all six
// policies under all four arrival conditions, the same policies under
// chaos (with and without checkpointed crash restarts), and a
// switching pair under chaos, whose live migrations reset stages.
func TestCounterAudit(t *testing.T) {
	for _, kind := range sched.Kinds() {
		for _, cond := range workload.Conditions() {
			kind, cond := kind, cond
			t.Run(fmt.Sprintf("%v/%v", kind, cond), func(t *testing.T) {
				p := workload.DefaultGenParams(cond)
				p.Apps = 12
				sys := NewSystem(SystemConfig{Policy: kind, Seed: 3})
				apps, err := workload.Generate(p, 11).Instantiate(0)
				if err != nil {
					t.Fatal(err)
				}
				sys.Engine.InjectSequence(apps)
				stepAudited(t, sys.Kernel, []*sched.Engine{sys.Engine})
				sys.Engine.CheckQuiescent()
			})
		}
		for _, checkpoint := range []bool{false, true} {
			kind, checkpoint := kind, checkpoint
			t.Run(fmt.Sprintf("%v/chaos/checkpoint=%v", kind, checkpoint), func(t *testing.T) {
				p := workload.DefaultGenParams(workload.Stress)
				p.Apps = 16
				sys := NewSystem(SystemConfig{Policy: kind, Seed: 5})
				apps, err := workload.Generate(p, 13).Instantiate(0)
				if err != nil {
					t.Fatal(err)
				}
				sys.Engine.InjectSequence(apps)
				spec := fault.Spec{Injectors: chaosInjectors()}
				if checkpoint {
					spec.Injectors = append(spec.Injectors, fault.InjectorSpec{Kind: fault.KindCheckpoint, CheckpointBytes: 64})
				}
				engines := []*sched.Engine{sys.Engine}
				if err := fault.Attach(&fault.Target{K: sys.Kernel, Engines: engines}, spec, 17); err != nil {
					t.Fatal(err)
				}
				stepAudited(t, sys.Kernel, engines)
				sys.Engine.CheckQuiescent()
				// The baseline reconfigures the whole fabric, never
				// through the flaky partial-reconfiguration path.
				_, _, _, crashed, retried, _ := sys.Engine.Col.FaultStats()
				if crashed == 0 || retried == 0 && kind != sched.KindBaseline {
					t.Errorf("chaos run crashed %d apps and retried %d, want both > 0", crashed, retried)
				}
			})
		}
	}
	t.Run("pair/chaos", func(t *testing.T) {
		f := cluster.MustNewFarm(cluster.DefaultFarmConfig(1))
		cl := f.Pairs[0]
		p := workload.DefaultGenParams(workload.Stress)
		p.Apps = 24
		if err := f.Inject(workload.Generate(p, 19)); err != nil {
			t.Fatal(err)
		}
		engines := []*sched.Engine{cl.Engine(migrate.Base), cl.Engine(migrate.Boost)}
		spec := fault.Spec{Injectors: append(chaosInjectors(),
			fault.InjectorSpec{Kind: fault.KindCheckpoint, CheckpointBytes: 64, RestoreDelay: sim.Millisecond})}
		tgt := &fault.Target{K: f.K, Engines: engines, Pairs: f.Pairs, Farm: f, Quiescent: f.Quiescent}
		if err := fault.Attach(tgt, spec, 23); err != nil {
			t.Fatal(err)
		}
		stepAudited(t, f.K, engines)
		if !f.Quiescent() {
			t.Fatal("pair did not drain")
		}
		if len(cl.Migrations) == 0 {
			t.Error("pair run migrated nothing")
		}
	})
}
