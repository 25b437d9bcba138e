package sched

import (
	"sync"

	"versaslot/internal/appmodel"
	"versaslot/internal/bitstream"
	"versaslot/internal/bundle"
	"versaslot/internal/sim"
)

// Exclusive is the traditional temporal-multiplexing baseline ([7],
// [16]: AWS-F1-style whole-FPGA allocation): one application owns the
// entire fabric at a time and runs its native monolithic design (all
// stages resident, internally pipelined, no partial reconfiguration).
// Multiplexing is purely temporal: a time slice rotates among queued
// applications, and every context switch performs a full fabric
// reconfiguration — the "significant context switch overhead" the
// paper's introduction calls out. A lone application runs to
// completion unperturbed, which is why this baseline is competitive
// under Loose arrivals and collapses under congestion.
type Exclusive struct {
	e        *Engine
	queue    []*appmodel.App
	current  *appmodel.App
	loading  bool
	draining bool
	sliceEnd sim.Time
}

// swapDone is the completion event of a swap-in's full
// reconfiguration, a typed view of the policy (see launchEvent).
type swapDone Exclusive

func (ev *swapDone) Fire() { (*Exclusive)(ev).swappedIn() }

var _ Policy = (*Exclusive)(nil)

// Name implements Policy.
func (x *Exclusive) Name() string { return KindBaseline.String() }

// Init implements Policy. The board's platform must be virtual
// (monolithic stage regions, no DPR).
func (x *Exclusive) Init(e *Engine) {
	if !e.Board.Platform.Virtual {
		panic("sched: Exclusive requires a virtual (monolithic) platform")
	}
	x.e = e
}

// AppArrived implements Policy.
func (x *Exclusive) AppArrived(a *appmodel.App) {
	x.queue = append(reserve(x.queue, x.e), a)
	// Wake the scheduler when the running app's slice expires, now that
	// someone is waiting for the fabric.
	if x.current != nil && !x.loading {
		t := x.sliceEnd
		if t < x.e.Now() {
			t = x.e.Now()
		}
		x.e.K.AtHandler(t, x.e.activation())
	}
}

// AppFinished implements Policy.
func (x *Exclusive) AppFinished(a *appmodel.App) {
	if x.current == a {
		x.current = nil
		x.draining = false
	}
}

// Schedule implements Policy.
func (x *Exclusive) Schedule() {
	e := x.e
	if x.loading {
		return
	}
	if x.current == nil {
		// A swap-in waits while a region the next design needs is
		// down; RecoverSlot re-activates the scheduler.
		if len(x.queue) > 0 && !e.Frozen() && !x.regionDown(x.queue[0]) {
			a := x.queue[0]
			x.queue = x.queue[1:]
			x.swapIn(a)
		}
		return
	}
	// Time-slice expiry: drain in-flight items, then swap the whole
	// fabric to the next queued app.
	if !x.draining && len(x.queue) > 0 && e.Now() >= x.sliceEnd {
		x.draining = true
	}
	if x.draining {
		if x.anyInFlight() {
			return // in-flight items complete, then we swap
		}
		x.swapOut()
		return
	}
	e.Pump(x.current)
}

func (x *Exclusive) anyInFlight() bool {
	for i := range x.current.Stages {
		st := &x.current.Stages[i]
		if st.InFlight() {
			return true
		}
	}
	return false
}

// swapOut evicts the current app (its DDR state persists; batch
// progress is kept) and re-queues it at the tail, holding no slot. None
// of its slots has failed: swappedIn places no stage on a failed slot,
// and a slot that fails under a placed stage crash-restarts the app.
func (x *Exclusive) swapOut() {
	e := x.e
	a := x.current
	x.current = nil
	x.draining = false
	for i := range a.Stages {
		e.EvictStage(&a.Stages[i])
	}
	a.State = appmodel.StateWaiting
	// Rotate within the bounded run-set: the multiplexer round-robins
	// a working set of applications, FCFS beyond it.
	pos := e.Params.BaselineRunset - 1
	if pos > len(x.queue) {
		pos = len(x.queue)
	}
	if pos < 0 {
		pos = 0
	}
	x.queue = append(x.queue, nil)
	copy(x.queue[pos+1:], x.queue[pos:])
	x.queue[pos] = a
	e.Activate()
}

// swapIn performs the full fabric reconfiguration and places every
// stage of the app's monolithic design.
func (x *Exclusive) swapIn(a *appmodel.App) {
	e := x.e
	x.current = a
	x.loading = true
	a.State = appmodel.StateReady
	if len(a.Stages) == 0 {
		// The monolithic design runs all tasks with the unpartitioned
		// implementation's timing advantage; stages sit in the virtual
		// stage regions of the platform's base class.
		bundle.BuildMonolithic(a, e.Board.Platform.Smallest().Name)
	}
	full := e.Repo.MustGet(bitstream.FullName(a.Spec.Name))
	cost := e.FullReconfigCost(full)
	e.Col.PRLoads++
	e.Col.PRBytes += full.Bytes
	e.Cores.PR.SubmitPooled(fullReconfigJob(a.Spec), "full-reconfig", cost, nil, (*swapDone)(x))
}

// regionDown reports whether a slot that a's monolithic design
// occupies (one per stage, from the board's first slot) is out of
// service.
func (x *Exclusive) regionDown(a *appmodel.App) bool {
	n := len(a.Stages)
	if n == 0 {
		n = a.Spec.TaskCount()
	}
	for _, s := range x.e.Board.Slots[:n] {
		if s.Failed() {
			return true
		}
	}
	return false
}

// swappedIn completes swapIn's reconfiguration. The app loading is
// x.current: nothing replaces it while x.loading holds, and it holds
// no slot a fault could crash it through (swapOut and crashApp both
// detach every stage before an app is queued again). No region it
// needs was down when the swap began, so one that is down now failed
// during the reconfiguration: the design never came up, and the app
// crash-restarts like any other fault victim.
func (x *Exclusive) swappedIn() {
	e, a := x.e, x.current
	if x.regionDown(a) {
		x.loading = false
		e.crashApp(a)
		return
	}
	for i := range a.Stages {
		e.PlaceResident(&a.Stages[i], e.Board.Slots[i])
	}
	x.loading = false
	x.sliceEnd = e.Now().Add(e.Params.BaselineQuantum)
	if len(x.queue) > 0 {
		e.K.AtHandler(x.sliceEnd, e.activation())
	}
	e.Pump(a)
	e.Activate()
}

// fullReconfigJobs interns each spec's PR-core job name, so a swap
// formats none.
var fullReconfigJobs sync.Map // *appmodel.AppSpec -> string

func fullReconfigJob(spec *appmodel.AppSpec) string {
	if name, ok := fullReconfigJobs.Load(spec); ok {
		return name.(string)
	}
	name, _ := fullReconfigJobs.LoadOrStore(spec, "full-reconfig "+spec.Name)
	return name.(string)
}

// ExtractMigratable implements Policy: queued apps can move; the one
// being executed (or reconfigured in) stays.
func (x *Exclusive) ExtractMigratable() []*appmodel.App {
	var out, kept []*appmodel.App
	for _, a := range x.queue {
		if a.Started {
			kept = append(kept, a)
		} else {
			out = append(out, a)
		}
	}
	x.queue = kept
	return out
}

// AcceptMigrated implements Policy.
func (x *Exclusive) AcceptMigrated(apps []*appmodel.App) {
	x.queue = append(x.queue, apps...)
	x.e.Activate()
}
