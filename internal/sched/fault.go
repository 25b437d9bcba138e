package sched

import (
	"versaslot/internal/appmodel"
	"versaslot/internal/fabric"
	"versaslot/internal/sim"
	"versaslot/internal/trace"
)

// This file is the engine's fault surface: everything the
// internal/fault injectors drive. The mechanics live here — next to
// the slot/PR/launch state machines they must stay consistent with —
// while the injectors own *when* faults strike. None of these paths
// execute unless an injector calls them, so fault-free runs stay
// byte-identical to the pre-fault engine.

// prFaultModel is the bounded retry+backoff model a pr-flaky injector
// installs: each PCAP streaming attempt fails with rate, retried after
// an exponentially growing backoff up to maxRetries times; exhaustion
// crash-restarts the application (the reconfiguration error was
// persistent, so its placement is abandoned). Draws come from the
// injector's own forked stream, never the kernel RNG, so enabling the
// model does not shift any other random axis.
type prFaultModel struct {
	rate       float64
	maxRetries int
	backoff    sim.Duration
	factor     float64
	rng        *sim.RNG
}

func (m *prFaultModel) delay(attempt int) sim.Duration {
	d := m.backoff
	for i := 0; i < attempt; i++ {
		d = sim.Duration(float64(d) * m.factor)
	}
	return d
}

// EnableFaultMetrics switches the board's collector into fault
// accounting (availability, downtime, crash/retry counts). The runner
// calls it once per engine when a scenario's faults block is non-empty.
func (e *Engine) EnableFaultMetrics() {
	e.Col.EnableFaults(len(e.Board.Slots))
}

// SetPRFault installs the reconfiguration-error model. rate is the
// per-attempt failure probability, maxRetries bounds re-streams,
// backoff/factor shape the retry delays, and rng is the injector's
// forked stream.
func (e *Engine) SetPRFault(rate float64, maxRetries int, backoff sim.Duration, factor float64, rng *sim.RNG) {
	e.prFault = &prFaultModel{rate: rate, maxRetries: maxRetries, backoff: backoff, factor: factor, rng: rng}
}

// SetCheckpointed toggles checkpoint/restore semantics for crash
// restarts: with checkpointing, a crashed application resumes from its
// per-stage progress (like a live migration); without, the batch
// restarts from item zero — the board's in-memory state died with it.
func (e *Engine) SetCheckpointed(v bool) { e.checkpointed = v }

// SetSlotSlowdown degrades a slot's service rate: subsequent batch
// items on it take factor times as long (an in-flight item finishes at
// its original speed — the degradation is observed at launch time).
func (e *Engine) SetSlotSlowdown(slot *fabric.Slot, factor float64) {
	e.rt(slot).slowFactor = factor
	e.Col.RecordFaultEventAt(e.K.Now())
	if e.Trace != nil {
		e.trace("%v slot %d straggling (x%.2f)", e.K.Now(), slot.ID, factor)
	}
}

// ClearSlotSlowdown restores the slot's nominal service rate.
func (e *Engine) ClearSlotSlowdown(slot *fabric.Slot) {
	e.rt(slot).slowFactor = 0
	if e.Trace != nil {
		e.trace("%v slot %d service rate restored", e.K.Now(), slot.ID)
	}
}

// FailSlot takes one reconfigurable region out of service: whatever
// application occupies it (resident, executing, or mid-load) is
// crash-restarted, and the slot stays unallocatable until RecoverSlot.
// Failing an already-failed slot is a no-op, so injector chains cannot
// double-count.
func (e *Engine) FailSlot(slot *fabric.Slot) {
	if slot.Failed() {
		return
	}
	e.Col.RecordFaultEventAt(e.K.Now())
	// The victim is the app whose stage still claims the slot. The
	// attachment check matters: a crash earlier in the same board
	// outage may have detached the stage (ResetStages) while leaving it
	// as Pending/Resident — its load aborts at the PR callback, its
	// region was scrubbed — and crashing the app again through that
	// stale reference would double-deliver it to the re-homing hook.
	var victim *appmodel.App
	switch slot.State() {
	case fabric.SlotLoading:
		if st, ok := slot.Pending.(*appmodel.Stage); ok && st.Loading() && st.Slot() == slot {
			victim = st.App
		}
	case fabric.SlotLoaded, fabric.SlotBusy:
		if st, ok := slot.Resident.(*appmodel.Stage); ok && st.Slot() == slot {
			victim = st.App
		}
	}
	slot.Fail()
	rt := e.rt(slot)
	rt.down = true
	rt.downSince = e.K.Now()
	if e.Trace != nil {
		e.trace("%v slot %d FAILED", e.K.Now(), slot.ID)
	}
	if e.Recorder != nil {
		e.record(trace.Event{Kind: trace.PRRequest, Slot: slot.ID, App: "slot-fail", Stage: -1, Item: -1})
	}
	if victim != nil && victim.State != appmodel.StateFinished {
		e.crashApp(victim)
	}
	e.Activate()
}

// RecoverSlot returns a failed slot to service and closes its
// downtime interval. The scheduler is re-activated so queued work can
// claim the region immediately.
func (e *Engine) RecoverSlot(slot *fabric.Slot) {
	if !slot.Failed() {
		return
	}
	slot.Recover()
	if rt := e.rt(slot); rt.down {
		e.Col.AccumulateDowntime(e.K.Now().Sub(rt.downSince))
		rt.down = false
	}
	if e.Trace != nil {
		e.trace("%v slot %d recovered", e.K.Now(), slot.ID)
	}
	e.Activate()
}

// crashApp restarts an application after a fault killed part of its
// state: every slot it holds is torn down (cancelling the in-flight
// item, if any), its stages reset — losing batch progress unless
// checkpointing is on — and it re-enters the waiting queue through the
// same AcceptMigrated path a live migration uses. The OnAppCrashed
// hook lets the cluster layer re-home apps crashed on a frozen
// (draining) board, which could otherwise never restart them.
func (e *Engine) crashApp(a *appmodel.App) {
	e.Col.RecordAppFailureAt(e.K.Now())
	if e.Trace != nil {
		e.trace("%v app %v crash-restart", e.K.Now(), a)
	}
	if e.Recorder != nil {
		e.record(trace.Event{Kind: trace.AppArrive, Slot: -1, App: a.String() + " crash-restart", Stage: -1, Item: -1})
	}
	for i := range a.Stages {
		st := &a.Stages[i]
		slot := st.Slot()
		if slot == nil {
			continue
		}
		if st.Loading() {
			// A PCAP transfer (or a retry backoff) is in flight; the
			// slot must stay SlotLoading until its callback observes
			// the detached stage and finishes the teardown via
			// AbortLoad. ResetStages below detaches the stage.
			continue
		}
		if slot.State() == fabric.SlotBusy {
			rt := e.rt(slot)
			if rt.execEv != sim.NoEvent {
				e.K.Cancel(rt.execEv)
				rt.execEv = sim.NoEvent
			}
			// The item's launch may still be queued on the scheduler
			// core; disarming makes its callback a no-op.
			rt.armed = false
			if err := slot.CompleteExec(); err != nil {
				panic(err)
			}
			st.SetInFlight(false)
		}
		e.evictResident(slot)
		if slot.Failed() {
			// Clear is gated on Free(), which a failed slot never
			// satisfies; Scrub force-empties the dead region so it
			// comes back clean and allocatable at Recover.
			if err := slot.Scrub(); err != nil {
				panic(err)
			}
			continue
		}
		if err := slot.Clear(); err != nil {
			panic(err)
		}
	}
	if !e.checkpointed {
		for i := range a.Stages {
			a.Stages[i].SetDone(0)
		}
	}
	appmodel.ResetStages(a)
	a.State = appmodel.StateWaiting
	e.policy.AppFinished(a)
	if e.OnAppCrashed == nil || !e.OnAppCrashed(a) {
		e.acceptOne(a)
	}
	if e.OnQueueUpdate != nil {
		e.OnQueueUpdate()
	}
	e.Activate()
}

// abortLoad tears down a load whose stage crashed (or whose slot
// failed) while the PCAP transfer or a retry backoff was in flight.
// Called from the PR callbacks when they observe the detachment.
func (e *Engine) abortLoad(slot *fabric.Slot) {
	if err := slot.AbortLoad(); err != nil {
		panic(err)
	}
	if e.Trace != nil {
		e.trace("%v PR aborted on slot %d", e.K.Now(), slot.ID)
	}
	e.Activate()
}

// failPRPermanently abandons a placement whose reconfiguration
// exhausted its fault-injected retries and crash-restarts the app.
func (e *Engine) failPRPermanently(st *appmodel.Stage, slot *fabric.Slot) {
	if e.Trace != nil {
		e.trace("%v PR retries exhausted for %v on slot %d", e.K.Now(), st, slot.ID)
	}
	st.Evict()
	if err := slot.AbortLoad(); err != nil {
		panic(err)
	}
	if st.App.State != appmodel.StateFinished {
		e.crashApp(st.App)
	} else {
		e.Activate()
	}
}

// FlushFaults closes open downtime intervals (end of run) so
// availability integrals are complete; folded into FlushResidency.
func (e *Engine) flushFaults() {
	for i := range e.slots {
		if rt := &e.slots[i]; rt.down {
			e.Col.AccumulateDowntime(e.K.Now().Sub(rt.downSince))
			rt.downSince = e.K.Now()
		}
	}
}
