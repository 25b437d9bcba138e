package sched

import (
	"versaslot/internal/appmodel"
	"versaslot/internal/bundle"
	"versaslot/internal/fabric"
	"versaslot/internal/sim"
)

// FCFS is first-come-first-served spatio-temporal sharing: applications
// are admitted strictly in arrival order (head-of-line blocking), and
// each gets one Little slot per task (gang allocation: the whole
// pipeline must be resident before the app is admitted, so a big app
// behind a busy fabric blocks everyone behind it). No ILP sizing, no
// backfill, no preemption. Single-core control plane.
type FCFS struct {
	e            *Engine
	class        fabric.SlotClass // the board's base slot class
	queue        []*appmodel.App  // waiting, strict arrival order
	running      []*appmodel.App
	cleanupUntil sim.Time
}

var _ Policy = (*FCFS)(nil)

// Name implements Policy.
func (f *FCFS) Name() string { return KindFCFS.String() }

// Init implements Policy. FCFS predates DDR bitstream caching: every
// PR re-streams from storage.
func (f *FCFS) Init(e *Engine) {
	f.e = e
	f.class = e.Board.Platform.Smallest()
	e.DisableBitstreamCache()
}

// AppArrived implements Policy.
func (f *FCFS) AppArrived(a *appmodel.App) {
	bundle.BuildTasks(a, f.class.Name)
	f.queue = append(f.queue, a)
}

// AppFinished implements Policy: the tenant's slots scrub before reuse.
func (f *FCFS) AppFinished(a *appmodel.App) {
	for i, x := range f.running {
		if x == a {
			f.running = append(f.running[:i], f.running[i+1:]...)
			break
		}
	}
	f.cleanupUntil = f.e.Now().Add(f.e.Params.TenantTeardown)
	f.e.K.At(f.cleanupUntil, f.e.activateFunc())
}

// Schedule implements Policy.
func (f *FCFS) Schedule() {
	e := f.e
	// Admit from the head only: strict FCFS. No admission while a
	// finished tenant's state is still being scrubbed.
	for len(f.queue) > 0 && !e.Frozen() && e.Now() >= f.cleanupUntil {
		head := f.queue[0]
		need := gangNeed(head, e.Params.GangMaxSlots)
		if e.Board.CountEmpty(f.class.Name) < need {
			break
		}
		f.queue = f.queue[1:]
		f.running = append(f.running, head)
		head.State = appmodel.StateReady
		placeGang(e, head, f.class.Name, need)
	}
	// Reuse slots of finished stages for still-unplaced stages, then
	// pump the resident pipelines. A gang-scheduled app starts only
	// once its whole pipeline is configured (naive systems stream data
	// after the fabric is set up, not stage by stage).
	for _, a := range f.running {
		reuseForUnplaced(e, a)
		if gangStarted(a) {
			e.Pump(a)
		}
	}
}

// ExtractMigratable implements Policy.
func (f *FCFS) ExtractMigratable() []*appmodel.App {
	out := f.queue
	f.queue = nil
	return out
}

// AcceptMigrated implements Policy.
func (f *FCFS) AcceptMigrated(apps []*appmodel.App) {
	f.queue = append(f.queue, apps...)
	f.e.Activate()
}

// gangNeed returns how many slots a gang allocation wants: one per
// unfinished stage, capped by the board.
func gangNeed(a *appmodel.App, boardSlots int) int {
	n := a.UnfinishedStages()
	if n > boardSlots {
		n = boardSlots
	}
	if n < 1 {
		n = 1
	}
	return n
}

// placeGang loads the app's first n unplaced, unfinished stages into
// the lowest-ID empty slots of the class; the caller checked that n
// are empty.
func placeGang(e *Engine, a *appmodel.App, class string, n int) {
	for i := range a.Stages {
		st := &a.Stages[i]
		if n == 0 {
			break
		}
		if st.Finished() || st.Slot() != nil {
			continue
		}
		e.RequestPR(st, e.Board.FirstEmpty(class))
		n--
	}
}

// gangStarted reports whether a gang-scheduled app may begin execution:
// every configuration it is waiting on has completed (or it already ran,
// in which case mid-run reloads do not re-gate it).
func gangStarted(a *appmodel.App) bool {
	if a.Started {
		return true
	}
	for i := range a.Stages {
		st := &a.Stages[i]
		if st.Loading() {
			return false
		}
	}
	return true
}

// reuseForUnplaced recycles slots of finished stages into the app's
// not-yet-placed stages (needed when task count exceeds board slots).
// The pairing walks both sequences in stage order with a cursor —
// placing a stage cannot un-finish an earlier one, so no intermediate
// list is needed.
func reuseForUnplaced(e *Engine, a *appmodel.App) {
	if a.UnplacedStages() == 0 || a.HeldFinishedStages() == 0 {
		return
	}
	u := nextUnplacedIdx(a, 0)
	for i := range a.Stages {
		st := &a.Stages[i]
		if st.Finished() && st.Slot() != nil && st.Slot().Free() {
			slot := st.Slot()
			e.EvictStage(st)
			e.RequestPR(&a.Stages[u], slot)
			u = nextUnplacedIdx(a, u+1)
			if u < 0 {
				return
			}
		}
	}
}

func nextUnplacedIdx(a *appmodel.App, from int) int {
	for i := from; i < len(a.Stages); i++ {
		st := &a.Stages[i]
		if !st.Finished() && st.Slot() == nil {
			return i
		}
	}
	return -1
}
