package sched

import (
	"versaslot/internal/appmodel"
	"versaslot/internal/bitstream"
	"versaslot/internal/bundle"
	"versaslot/internal/fabric"
	"versaslot/internal/pipeline"
	"versaslot/internal/sim"
)

// VersaSlotBL is the paper's headline system: the Big.Little slot
// architecture driven by Algorithm 1 (slot allocation with primary
// allocation, redistribution, binding and rebinding) and Algorithm 2
// (dual-core scheduling with online 3-in-1 bundling and asynchronous
// PR). It ranks the board's slot classes by capacity: the largest
// class plays the Big (bundle) role, the smallest the Little (task)
// role — so any heterogeneous platform works, with "Big"/"Little"
// meaning capacity rank, not hard-coded names. Pair it with a
// heterogeneous platform and hypervisor.DualCore.
type VersaSlotBL struct {
	e      *Engine
	big    fabric.SlotClass // largest-capacity class (bundle role)
	little fabric.SlotClass // smallest-capacity class (task role)

	cwait   []blApp // C_wait: apps awaiting slot allocation
	sBig    []blApp // S_Big: apps bound to big-class slots
	sLittle []blApp // S_Little: apps bound to little-class slots

	lastPreempt sim.Time

	// ev is scratch for sizing a plan not sized before.
	ev pipeline.Eval
}

// blApp is one application's Algorithm 1 record, moved by value
// between C_wait, S_Big and S_Little.
type blApp struct {
	a       *appmodel.App
	r       int // R^B_Ai or R^L_Ai: allocation in the bound class (0 in C_wait)
	optB    int // O^B_Ai
	optL    int // O^L_Ai
	maxUseL int // redistribution ceiling
}

var _ Policy = (*VersaSlotBL)(nil)

// NewVersaSlotBL returns the Big.Little policy.
func NewVersaSlotBL() *VersaSlotBL { return &VersaSlotBL{} }

// Name implements Policy.
func (v *VersaSlotBL) Name() string { return KindVersaSlotBL.String() }

// Init implements Policy.
func (v *VersaSlotBL) Init(e *Engine) {
	if !e.Board.Platform.Heterogeneous() {
		panic("sched: VersaSlotBL requires a heterogeneous (multi-class) platform")
	}
	v.e = e
	v.big = e.Board.Platform.Largest()
	v.little = e.Board.Platform.Smallest()
}

// AppArrived implements Policy: compute both pipeline optima (O^B, O^L)
// and join the waiting list.
func (v *VersaSlotBL) AppArrived(a *appmodel.App) {
	e := v.e
	w := blApp{a: a}
	// Apps whose every task fits the little class get a task-pipeline
	// plan; bundle-only apps (a task exceeds the little class but the
	// triples consolidate into the big class) keep optL at zero and
	// wait for big-class slots — their little-class partials were never
	// generated.
	if v.fitsLittle(a.Spec) {
		maxL := e.Board.Count(v.little.Name)
		if maxL > e.Params.MaxSlotsPerApp {
			maxL = e.Params.MaxSlotsPerApp
		}
		load := e.PCAP.LoadDuration(e.Repo.MustGet(
			bitstream.TaskName(a.Spec.Name, a.Spec.Tasks[0].Name, v.little.Name)))
		w.optL, w.maxUseL = sizePlan(&v.ev, sizeKey{spec: a.Spec, class: v.little.Name,
			batch: a.Batch, load: load, maxSlots: maxL})
	}
	if bundle.CanBundleIn(a.Spec, v.big.Cap) {
		// Big slots are scarce and already contention-optimal, so the
		// bundle pipeline is sized for throughput: the smallest count
		// reaching the best makespan the board allows.
		load := e.PCAP.LoadDuration(e.Repo.MustGet(bitstream.BundleName(a.Spec.Name, 0, "par", v.big.Name)))
		_, w.optB = sizePlan(&v.ev, sizeKey{spec: a.Spec, class: v.big.Name, bundled: true,
			batch: a.Batch, load: load, maxSlots: e.Board.Count(v.big.Name)})
	}
	v.cwait = append(v.cwait, w)
}

func (v *VersaSlotBL) fitsLittle(spec *appmodel.AppSpec) bool {
	for _, t := range spec.Tasks {
		if !t.Impl.FitsIn(v.little.Cap) {
			return false
		}
	}
	return true
}

// AppFinished implements Policy.
func (v *VersaSlotBL) AppFinished(a *appmodel.App) {
	v.sBig = removeBL(v.sBig, a)
	v.sLittle = removeBL(v.sLittle, a)
}

// Schedule implements Policy — Algorithm 2, with Algorithm 1 embedded
// as the allocation step.
func (v *VersaSlotBL) Schedule() {
	e := v.e
	v.releaseAndReuse()
	if !e.Frozen() {
		v.preemptLittle(v.allocate())
	}
	v.place()
	for _, b := range v.sBig {
		ensureProgress(e, b.a)
		e.Pump(b.a)
	}
	for _, b := range v.sLittle {
		ensureProgress(e, b.a)
		e.Pump(b.a)
	}
	// Apps still waiting for slots are blocked tasks in the D_switch
	// sense: their PR cannot even be issued.
	e.WindowBlocked += uint64(len(v.cwait))
}

// allocate is Algorithm 1. It returns the Little slots left neither
// held nor promised: binding and redistribution change allocations,
// not placements, so each adjusts that count by the app's shortfall
// delta instead of rescanning.
func (v *VersaSlotBL) allocate() int {
	e := v.e
	bAvail := e.Board.CountEmpty(v.big.Name) - slack(v.sBig)
	lAvail := e.Board.CountEmpty(v.little.Name) - slack(v.sLittle)
	if bAvail <= 0 && lAvail <= 0 {
		return lAvail
	}
	// Rebinding: free Big capacity pulls not-yet-started Little-bound
	// apps back to the waiting list so they can bind to Big slots.
	if bAvail > 0 {
		kept := v.sLittle[:0]
		for _, b := range v.sLittle {
			if b.a.Started || b.optB == 0 || !v.canUnbind(b.a) {
				kept = append(kept, b)
				continue
			}
			v.evictAll(b.a)
			b.a.State = appmodel.StateWaiting
			b.r = 0
			v.cwait = append(v.cwait, b)
		}
		clear(v.sLittle[len(kept):])
		v.sLittle = kept
		lAvail = e.Board.CountEmpty(v.little.Name) - slack(v.sLittle)
	}
	// Primary allocation: Big first for bundleable apps, then Little.
	lLeft, lFree := lAvail, lAvail
	kept := v.cwait[:0]
	for _, w := range v.cwait {
		if bAvail > 0 && w.optB > 0 {
			r := w.optB
			if r > bAvail {
				r = bAvail
			}
			v.bindBig(w, r)
			bAvail -= r
			continue
		}
		if lLeft > 0 {
			r := w.optL
			if r > lLeft {
				r = lLeft
			}
			if r >= 1 {
				v.bindLittle(w, r)
				lLeft -= r
				lFree -= shortfall(w.a, r)
				continue
			}
		}
		kept = append(kept, w)
	}
	clear(v.cwait[len(kept):])
	v.cwait = kept
	// Redistribution: leftover Little slots top up bound apps (front of
	// the runnable queue first) toward their maximum useful counts.
	for i := range v.sLittle {
		if lLeft <= 0 {
			break
		}
		b := &v.sLittle[i]
		ceil := b.maxUseL
		if rem := b.a.UnplacedStages() + b.a.HeldSlots(); ceil > rem {
			ceil = rem
		}
		delta := ceil - b.r
		if delta <= 0 {
			continue
		}
		if delta > lLeft {
			delta = lLeft
		}
		lFree -= shortfall(b.a, b.r+delta) - shortfall(b.a, b.r)
		b.r += delta
		lLeft -= delta
	}
	return lFree
}

func (v *VersaSlotBL) bindBig(w blApp, r int) {
	bundle.Build(w.a, v.big.Name)
	w.r = r
	w.a.State = appmodel.StateReady
	v.sBig = append(v.sBig, w)
}

func (v *VersaSlotBL) bindLittle(w blApp, r int) {
	bundle.BuildTasks(w.a, v.little.Name)
	w.r = r
	w.a.State = appmodel.StateReady
	v.sLittle = append(v.sLittle, w)
}

// canUnbind: rebinding is only legal before execution starts and while
// no PR for the app is in flight (a PCAP load cannot be aborted).
func (v *VersaSlotBL) canUnbind(a *appmodel.App) bool {
	if a.Started {
		return false
	}
	for i := range a.Stages {
		st := &a.Stages[i]
		if st.Loading() || st.InFlight() {
			return false
		}
	}
	return true
}

func (v *VersaSlotBL) evictAll(a *appmodel.App) {
	for i := range a.Stages {
		st := &a.Stages[i]
		if st.Slot() != nil && st.Slot().Free() {
			v.e.EvictStage(st)
		}
	}
}

// slack counts slots promised but not yet held (placement in flight).
func slack(bound []blApp) int {
	total := 0
	for _, b := range bound {
		total += shortfall(b.a, b.r)
	}
	return total
}

// releaseAndReuse recycles finished stages' slots within each app, then
// returns surplus to the pool; it also enforces shrunken allocations.
func (v *VersaSlotBL) releaseAndReuse() {
	for _, b := range v.sBig {
		recycleFinished(v.e, b.a)
	}
	for _, b := range v.sLittle {
		recycleFinished(v.e, b.a)
	}
	for _, b := range v.sLittle {
		shrinkTo(v.e, b.a, b.r)
	}
}

// preemptLittle is the aging preemption, restricted to Little slots:
// Big-bound apps run to completion ("applications bound to the big
// slots can only complete all their tasks in the Big slots"). lFree is
// allocate's count of Little slots neither held nor promised.
func (v *VersaSlotBL) preemptLittle(lFree int) {
	e := v.e
	if len(v.cwait) == 0 || lFree > 0 {
		return
	}
	now := e.Now()
	starved := false
	for _, w := range v.cwait {
		if now.Sub(w.a.Arrival) >= e.Params.PreemptAge {
			starved = true
			break
		}
	}
	if !starved || now.Sub(v.lastPreempt) < e.Params.PreemptAge/4 {
		return
	}
	var victim *blApp
	most := e.Params.PreemptMinRemaining
	for i := range v.sLittle {
		b := &v.sLittle[i]
		if b.r <= 1 {
			continue
		}
		if rem := b.a.RemainingItems(); rem >= most {
			most = rem
			victim = b
		}
	}
	if victim == nil {
		return
	}
	victim.r--
	v.lastPreempt = now
}

// place loads stages into idle slots up to each app's allocation
// (Algorithm 2 lines 13-19), asynchronously via the PR server.
func (v *VersaSlotBL) place() {
	v.placeIn(v.sBig, v.big.Name)
	v.placeIn(v.sLittle, v.little.Name)
}

func (v *VersaSlotBL) placeIn(bound []blApp, class string) {
	e := v.e
	for _, b := range bound {
		for b.a.HeldSlots() < b.r {
			st := nextUnplaced(b.a)
			if st == nil {
				break
			}
			slot := e.Board.FirstEmpty(class)
			if slot == nil {
				break
			}
			e.RequestPR(st, slot)
		}
	}
}

// ExtractMigratable implements Policy: waiting apps plus bound-but-not-
// started apps (their binding is dissolved; PR work already spent is
// the rebinding cost live migration accepts).
func (v *VersaSlotBL) ExtractMigratable() []*appmodel.App {
	var out []*appmodel.App
	for _, w := range v.cwait {
		out = append(out, w.a)
	}
	clear(v.cwait)
	v.cwait = v.cwait[:0]
	return v.unbindStarted(out, -1)
}

// ExtractMigratableUpTo implements MigrationLimiter: the most recently
// arrived waiting apps move first (zero sunk PR work, furthest from
// being scheduled locally); bound-but-not-started apps are unbound
// only when the waiting list alone cannot fill the request, so a
// partial extraction never churns the bindings of apps that stay.
func (v *VersaSlotBL) ExtractMigratableUpTo(n int) []*appmodel.App {
	var out []*appmodel.App
	for n > len(out) && len(v.cwait) > 0 {
		last := len(v.cwait) - 1
		out = append(out, v.cwait[last].a)
		v.cwait[last] = blApp{}
		v.cwait = v.cwait[:last]
	}
	return v.unbindStarted(out, n)
}

// unbindStarted dissolves the Little bindings of apps that may still
// move (canUnbind), in S_Little order, appending them to out until out
// holds n apps (n < 0: no limit).
func (v *VersaSlotBL) unbindStarted(out []*appmodel.App, n int) []*appmodel.App {
	kept := v.sLittle[:0]
	for _, b := range v.sLittle {
		if (n < 0 || len(out) < n) && v.canUnbind(b.a) {
			v.evictAll(b.a)
			b.a.State = appmodel.StateWaiting
			out = append(out, b.a)
			continue
		}
		kept = append(kept, b)
	}
	clear(v.sLittle[len(kept):])
	v.sLittle = kept
	return out
}

var _ MigrationLimiter = (*VersaSlotBL)(nil)

// AcceptMigrated implements Policy.
func (v *VersaSlotBL) AcceptMigrated(apps []*appmodel.App) {
	for _, a := range apps {
		v.AppArrived(a)
	}
	v.e.Activate()
}

func removeBL(list []blApp, a *appmodel.App) []blApp {
	for i, b := range list {
		if b.a == a {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}
