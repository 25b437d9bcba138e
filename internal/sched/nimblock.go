package sched

import (
	"versaslot/internal/appmodel"
	"versaslot/internal/bundle"
	"versaslot/internal/fabric"
	"versaslot/internal/pipeline"
	"versaslot/internal/sim"
)

// littleSched is the shared machinery of the two uniform-slot pipeline
// schedulers:
//
//   - Nimblock [15]: ILP-optimal slot counts, inter-slot item
//     pipelining, aging-based preemption — but a single-core control
//     plane, so every PCAP load blocks scheduling and launches, and
//     leftover slots are not redistributed.
//   - VersaSlot Only.Little: the same allocation discipline with the
//     dual-core PR server (chosen by the runner's CoreModel) plus
//     redistribution of leftover slots to running applications.
type littleSched struct {
	kind         Kind
	redistribute bool

	e *Engine
	// class is the slot class the scheduler operates on: the board's
	// base (smallest-capacity) class, so uniform platforms of any size
	// class — Little, Big, Large, Small — run the same discipline.
	class       fabric.SlotClass
	waiting     []lsApp
	running     []lsApp
	lastPreempt sim.Time

	// ev is scratch for sizing a plan not sized before.
	ev pipeline.Eval
}

// lsApp is one application's allocation record, moved by value from
// the waiting list to the running list at admission.
type lsApp struct {
	a      *appmodel.App
	alloc  int // slots allocated (0 while waiting)
	opt    int // O_L: ILP-optimal slot count
	maxUse int // top-up ceiling for redistribution
}

// Nimblock is the state-of-the-art single-core comparator.
type Nimblock struct{ littleSched }

var _ Policy = (*Nimblock)(nil)

// Init implements Policy.
func (n *Nimblock) Init(e *Engine) { n.littleSched.init(KindNimblock, false, e) }

// Name implements Policy.
func (n *Nimblock) Name() string { return KindNimblock.String() }

// NewVersaSlotOL returns VersaSlot on an Only.Little board. Pair it with
// hypervisor.DualCore in the runner: the async PR server is the system's
// point (Section III-B, Fig. 2 middle).
func NewVersaSlotOL() Policy { return &versaSlotOL{} }

type versaSlotOL struct{ littleSched }

var _ Policy = (*versaSlotOL)(nil)

// Init implements Policy.
func (v *versaSlotOL) Init(e *Engine) { v.littleSched.init(KindVersaSlotOL, true, e) }

// Name implements Policy.
func (v *versaSlotOL) Name() string { return KindVersaSlotOL.String() }

func (l *littleSched) init(kind Kind, redistribute bool, e *Engine) {
	l.kind = kind
	l.redistribute = redistribute
	l.e = e
	l.class = e.Board.Platform.Smallest()
}

// Name implements Policy.
func (l *littleSched) Name() string { return l.kind.String() }

// AppArrived implements Policy.
func (l *littleSched) AppArrived(a *appmodel.App) {
	bundle.BuildTasks(a, l.class.Name)
	max := l.e.Board.Count(l.class.Name)
	if max > l.e.Params.MaxSlotsPerApp {
		max = l.e.Params.MaxSlotsPerApp
	}
	load := l.e.PCAP.LoadDuration(l.e.Repo.MustGet(a.Stages[0].BitstreamName()))
	opt, maxUse := sizePlan(&l.ev, sizeKey{spec: a.Spec, class: l.class.Name,
		batch: a.Batch, load: load, maxSlots: max})
	l.waiting = append(reserve(l.waiting, l.e), lsApp{a: a, opt: opt, maxUse: maxUse})
}

// AppFinished implements Policy.
func (l *littleSched) AppFinished(a *appmodel.App) {
	l.drop(a)
}

func (l *littleSched) drop(a *appmodel.App) {
	for i, r := range l.running {
		if r.a == a {
			l.running = append(l.running[:i], l.running[i+1:]...)
			break
		}
	}
}

// Schedule implements Policy.
func (l *littleSched) Schedule() {
	e := l.e
	l.releaseAndReuse()
	if !e.Frozen() {
		// Slots neither held nor promised. Admission and top-up change
		// allocations but never placements, so each adjusts this by the
		// shortfall delta of the app it touched instead of rescanning.
		free := e.Board.CountEmpty(l.class.Name) - l.reservedSlack()
		free = l.admit(free)
		if l.redistribute {
			free = l.topUp(free)
		}
		l.preemptIfStarved(free)
	}
	l.place()
	for _, r := range l.running {
		ensureProgress(e, r.a)
		e.Pump(r.a)
	}
	// Apps still waiting for slots are blocked tasks in the D_switch
	// sense: their PR cannot even be issued.
	e.WindowBlocked += uint64(len(l.waiting))
}

// releaseAndReuse recycles finished stages' slots: within the same app
// when it still has unplaced work, otherwise back to the free pool. It
// also enforces shrunken allocations.
func (l *littleSched) releaseAndReuse() {
	e := l.e
	for _, r := range l.running {
		recycleFinished(e, r.a)
		shrinkTo(e, r.a, r.alloc)
	}
}

// admit gives waiting apps their ILP-optimal count, greedily in arrival
// order with backfill (no head-of-line blocking), out of free
// unpromised slots; it returns what is left.
func (l *littleSched) admit(free int) int {
	kept := l.waiting[:0]
	for _, w := range l.waiting {
		want := w.opt
		if want > free {
			want = free
		}
		if want < 1 {
			kept = append(kept, w)
			continue
		}
		w.alloc = want
		free -= shortfall(w.a, want)
		w.a.State = appmodel.StateReady
		l.running = append(l.running, w)
	}
	clear(l.waiting[len(kept):])
	l.waiting = kept
	return free
}

// reservedSlack counts slots already promised to running apps but not
// yet physically held (placement is asynchronous).
func (l *littleSched) reservedSlack() int {
	slack := 0
	for _, r := range l.running {
		slack += shortfall(r.a, r.alloc)
	}
	return slack
}

// shortfall is the part of an r-slot allocation that app a has yet to
// place: slots promised but not held, capped by its unplaced stages.
func shortfall(a *appmodel.App, r int) int {
	short := r - a.HeldSlots()
	if rem := a.UnplacedStages(); short > rem {
		short = rem
	}
	if short < 0 {
		return 0
	}
	return short
}

// topUp is VersaSlot's redistribution: leftover slots go to running
// apps (front of the runnable queue first) up to their maximum useful
// count, avoiding slot idling. It returns the free slots left.
func (l *littleSched) topUp(free int) int {
	for i := range l.running {
		if free <= 0 {
			break
		}
		r := &l.running[i]
		ceil := r.maxUse
		if rem := r.a.UnplacedStages() + r.a.HeldSlots(); ceil > rem {
			ceil = rem
		}
		extra := ceil - r.alloc
		if extra <= 0 {
			continue
		}
		if extra > free {
			extra = free
		}
		free -= shortfall(r.a, r.alloc+extra) - shortfall(r.a, r.alloc)
		r.alloc += extra
	}
	return free
}

// preemptIfStarved implements the aging preemption of [15]: when an app
// has waited past PreemptAge with nothing free, the running app with
// the most remaining work cedes one slot.
func (l *littleSched) preemptIfStarved(free int) {
	e := l.e
	if len(l.waiting) == 0 || free > 0 {
		return
	}
	now := e.Now()
	starved := false
	for _, w := range l.waiting {
		if now.Sub(w.a.Arrival) >= e.Params.PreemptAge {
			starved = true
			break
		}
	}
	if !starved || now.Sub(l.lastPreempt) < e.Params.PreemptAge/4 {
		return
	}
	var victim *lsApp
	most := l.e.Params.PreemptMinRemaining
	for i := range l.running {
		r := &l.running[i]
		if r.alloc <= 1 {
			continue
		}
		if rem := r.a.RemainingItems(); rem >= most {
			most = rem
			victim = r
		}
	}
	if victim == nil {
		return
	}
	victim.alloc--
	l.lastPreempt = now
	// releaseAndReuse enforces the shrink at the next item boundary.
}

// place physically loads stages until each app holds its allocation.
func (l *littleSched) place() {
	e := l.e
	for _, r := range l.running {
		for r.a.HeldSlots() < r.alloc {
			st := nextUnplaced(r.a)
			if st == nil {
				break
			}
			slot := e.Board.FirstEmpty(l.class.Name)
			if slot == nil {
				break
			}
			e.RequestPR(st, slot)
		}
	}
}

// ExtractMigratable implements Policy.
func (l *littleSched) ExtractMigratable() []*appmodel.App {
	if len(l.waiting) == 0 {
		return nil
	}
	out := make([]*appmodel.App, len(l.waiting))
	for i, w := range l.waiting {
		out[i] = w.a
	}
	clear(l.waiting)
	l.waiting = l.waiting[:0]
	return out
}

// AcceptMigrated implements Policy.
func (l *littleSched) AcceptMigrated(apps []*appmodel.App) {
	for _, a := range apps {
		// Rebuild plans against this board's parameters.
		if len(a.Stages) == 0 || a.Stages[0].Class() != l.class.Name {
			appmodel.ResetStages(a)
		}
		l.AppArrived(a)
	}
	l.e.Activate()
}

func nextUnplaced(a *appmodel.App) *appmodel.Stage {
	if a.UnplacedStages() == 0 {
		return nil
	}
	for i := range a.Stages {
		st := &a.Stages[i]
		if !st.Finished() && st.Slot() == nil {
			return st
		}
	}
	return nil
}

func earliestUnfinished(a *appmodel.App) *appmodel.Stage {
	for i := range a.Stages {
		st := &a.Stages[i]
		if !st.Finished() {
			return st
		}
	}
	return nil
}

// recycleFinished moves finished stages' slots to the app's unplaced
// stages and, once none is left unplaced, back to the free pool.
func recycleFinished(e *Engine, a *appmodel.App) {
	if a.HeldFinishedStages() == 0 {
		return
	}
	reuseForUnplaced(e, a)
	if a.UnplacedStages() != 0 {
		return
	}
	for i := range a.Stages {
		st := &a.Stages[i]
		if st.Finished() && st.Slot() != nil && st.Slot().Free() {
			e.EvictStage(st)
		}
	}
}

// shrinkTo enforces a shrunken allocation (preemption): it evicts idle
// stages until the app holds no more than n slots, or none is idle —
// the rest then go at a later item boundary.
func shrinkTo(e *Engine, a *appmodel.App, n int) {
	for a.HeldSlots() > n {
		victim := shrinkVictim(a)
		if victim == nil {
			return
		}
		e.EvictStage(victim)
	}
}

// shrinkVictim picks the stage to evict when an app must give a slot
// back: the most downstream idle stage that is not the earliest
// unfinished one — evicting that one would starve the whole pipeline.
func shrinkVictim(a *appmodel.App) *appmodel.Stage {
	first := earliestUnfinished(a)
	for i := len(a.Stages) - 1; i >= 0; i-- {
		st := &a.Stages[i]
		if st == first {
			continue
		}
		if st.Slot() != nil && !st.Loading() && !st.InFlight() && st.Slot().Free() && !st.Finished() {
			return st
		}
	}
	return nil
}

// ensureProgress is the liveness safety net for under-allocated apps:
// if the earliest unfinished stage has no slot and nothing the app
// holds can execute, the most downstream idle stage cedes its slot.
func ensureProgress(e *Engine, a *appmodel.App) {
	if a.UnplacedStages() == 0 {
		return // every unfinished stage, the earliest included, has a slot
	}
	first := earliestUnfinished(a)
	if first == nil || first.Slot() != nil {
		return
	}
	for i := range a.Stages {
		st := &a.Stages[i]
		if st.Slot() == nil {
			continue
		}
		if st.InFlight() || st.Loading() || (st.Resident() && st.NextItemReady()) {
			return // something is (or can get) running
		}
	}
	victim := shrinkVictim(a)
	if victim == nil {
		return
	}
	slot := victim.Slot()
	e.EvictStage(victim)
	if slot.Class.Name == first.Class() {
		e.RequestPR(first, slot)
	}
}
