package sched

import (
	"fmt"

	"versaslot/internal/appmodel"
	"versaslot/internal/bitstream"
	"versaslot/internal/fabric"
	"versaslot/internal/hypervisor"
	"versaslot/internal/metrics"
	"versaslot/internal/pcap"
	"versaslot/internal/sim"
	"versaslot/internal/trace"
)

// Engine is the per-board execution machinery every policy drives: it
// owns the fabric slots, the PCAP, the CPU cores, the bitstream store,
// and the mechanics of partial reconfiguration and batch-item launches.
// Policies make decisions; the engine charges their true costs.
type Engine struct {
	K      *sim.Kernel
	Params Params
	Board  *fabric.Board
	Cores  *hypervisor.Cores
	PCAP   *pcap.Device
	Repo   *bitstream.Repository
	Cache  *bitstream.Cache
	Col    *metrics.Collector

	policy Policy

	// Apps are all injected applications in arrival order.
	Apps []*appmodel.App
	// Active are arrived, unfinished apps in arrival order.
	Active []*appmodel.App

	pendingSched bool
	frozen       bool

	// arrivals delivers InjectSequence's arrivals to arrive.
	arrivals *ArrivalCursor

	// own holds the fixed per-board parts Cores, PCAP, Cache and Col
	// point at, so they share the Engine's allocation.
	own struct {
		cores hypervisor.Cores
		pcap  pcap.Device
		cache bitstream.Cache
		col   metrics.Collector
	}

	// slots holds the per-slot hot-path runtime state, indexed by
	// fabric.Slot.ID. Launch/exec/PR closures bound once per slot and
	// plain struct fields replace the per-launch closures and per-slot
	// maps of the original engine: at most one launch, one executing
	// item, and one PCAP load can be in flight per slot at a time, so
	// the state of each is a slot-indexed record, not an allocation.
	slots []slotRT
	// schedPassFn is the one pre-bound scheduler-pass body Activate
	// submits (coalesced, so one is enough); activateFn is Activate
	// itself, bound on first use (see activateFunc) so policies can
	// schedule wake-ups without allocating a method value per pass.
	schedPassFn func()
	activateFn  func()

	// prFault, when set, injects bounded-retry reconfiguration errors.
	prFault *prFaultModel
	// one is the scratch one-element list acceptOne hands the policy.
	one [1]*appmodel.App
	// checkpointed makes crash restarts keep per-stage batch progress.
	checkpointed bool

	// OnAppCrashed, when set, may re-home a crash-restarted app (e.g.
	// the cluster moves apps crashed on a frozen, draining board to the
	// active one). Returning true means the hook re-queued the app.
	OnAppCrashed func(*appmodel.App) bool

	// OnAppArrived fires when an app joins the candidate queue
	// (streaming-observer hook; migrated apps do not re-fire it).
	OnAppArrived func(*appmodel.App)
	// OnAppFinished fires after an app completes (cluster/migration hook).
	OnAppFinished func(*appmodel.App)
	// OnQueueUpdate fires on every candidate-queue change: an arrival
	// or a completion. The D_switch controller recomputes on a cadence
	// of these.
	OnQueueUpdate func()

	// WindowBlocked and WindowPR count, since the last external reset,
	// tasks whose PR waited behind another load, and PR loads issued —
	// the numerator and denominator history feeding D_switch.
	WindowBlocked uint64
	WindowPR      uint64

	// Trace, when non-nil, receives one line per engine event (PR
	// start/completion, item launch/completion, app lifecycle). Used by
	// the vstrace tool; nil in normal runs.
	Trace func(format string, args ...any)

	// Recorder, when non-nil, receives typed events for timeline
	// rendering and post-hoc analysis.
	Recorder *trace.Recorder
}

// record and trace emit to the attached sinks. Every call site checks
// e.Recorder or e.Trace first, so a run without sinks never builds an
// event or boxes a trace argument.
func (e *Engine) record(ev trace.Event) {
	if e.Recorder != nil {
		ev.At = e.K.Now()
		e.Recorder.Record(ev)
	}
}

func (e *Engine) trace(format string, args ...any) {
	if e.Trace != nil {
		e.Trace(format, args...)
	}
}

// slotRT is the per-slot runtime record backing the engine's hot paths.
// The fabric guarantees at most one launch, one executing item, and one
// PCAP load in flight per slot (a slot is Busy from BeginExec to
// CompleteExec and Loading from BeginLoad to CompleteLoad/abort), so
// each activity's state lives in plain fields written at submission and
// read by a closure bound once, at the slot's first launch or load (see
// bind), so slots a run never uses cost no closures.
type slotRT struct {
	e    *Engine
	slot *fabric.Slot

	// Residency-interval tracking for utilization integrals.
	resStage *appmodel.Stage
	resSince sim.Time

	// In-flight launch/exec state. armed invalidates a launch still
	// queued on the scheduler core when a fault tears its slot down: the
	// FIFO core drains the stale launch before any re-placement of the
	// slot can queue a new one, so a bool (not a token) suffices.
	st     *appmodel.Stage
	idx    int
	dur    sim.Duration
	start  sim.Time
	armed  bool
	execEv sim.EventID

	// Fault state (see fault.go).
	down       bool
	downSince  sim.Time
	slowFactor float64 // > 1 degrades service (straggler); else nominal

	// PR-attempt state for the pre-bound PCAP callbacks, stable from
	// submission to completion.
	prStage   *appmodel.Stage
	prBits    *bitstream.Bitstream
	prCost    sim.Duration
	prAttempt int
	prWaited  sim.Duration

	launchFn  func()
	execFn    func()
	prStartFn func(sim.Duration)
	prDoneFn  func()
	prRetryFn func()
}

// bind creates the slot's launch/exec/PR callbacks on first use; later
// calls return at once, so steady-state submissions allocate nothing.
func (rt *slotRT) bind() {
	if rt.launchFn != nil {
		return
	}
	rt.launchFn = rt.runLaunch
	rt.execFn = rt.runExec
	rt.prStartFn = rt.prStart
	rt.prDoneFn = rt.prDone
}

// rt returns the runtime record of a slot. Slot IDs are indices into the
// board's slot list (see fabric.NewBoard), so this is a direct index.
func (e *Engine) rt(s *fabric.Slot) *slotRT { return &e.slots[s.ID] }

// NewEngine wires a board's execution machinery together.
func NewEngine(k *sim.Kernel, p Params, board *fabric.Board, model hypervisor.CoreModel, repo *bitstream.Repository) *Engine {
	e := &Engine{
		K:      k,
		Params: p,
		Board:  board,
		Repo:   repo,
	}
	e.own.cores.Init(k, model, board.ID)
	e.own.pcap.Init(p.PCAPBandwidth, p.PCAPOverhead)
	e.own.cache.Init(p.CacheEntries)
	e.own.col.Init(board.Platform.SlotCapacity())
	e.Cores, e.PCAP, e.Cache, e.Col = &e.own.cores, &e.own.pcap, &e.own.cache, &e.own.col
	e.slots = make([]slotRT, len(board.Slots))
	for i, s := range board.Slots {
		e.slots[i].e = e
		e.slots[i].slot = s
	}
	e.schedPassFn = func() {
		e.pendingSched = false
		e.policy.Schedule()
	}
	return e
}

// activateFunc returns Activate as a func value, binding it on first
// use: only the policies that schedule timed wake-ups need it.
func (e *Engine) activateFunc() func() {
	if e.activateFn == nil {
		e.activateFn = e.Activate
	}
	return e.activateFn
}

// DisableBitstreamCache models control planes without a DDR bitstream
// store (pre-Nimblock systems like the FCFS/RR comparators): every
// partial reconfiguration re-streams its bitstream from the SD card.
func (e *Engine) DisableBitstreamCache() {
	e.Cache = bitstream.NewCache(0)
}

// SetPolicy installs the scheduling policy; must happen before any
// arrivals.
func (e *Engine) SetPolicy(p Policy) {
	e.policy = p
	p.Init(e)
}

// Policy returns the installed policy.
func (e *Engine) Policy() Policy { return e.policy }

// Now returns the kernel clock.
func (e *Engine) Now() sim.Time { return e.K.Now() }

// Frozen reports whether the engine is draining for migration.
func (e *Engine) Frozen() bool { return e.frozen }

// SetFrozen toggles migration-drain mode. Policies must not start new
// applications while frozen (apps already executing run to completion).
func (e *Engine) SetFrozen(v bool) {
	e.frozen = v
	e.Activate()
}

// InjectSequence schedules arrival events for apps (Arrival fields are
// absolute virtual times) through the engine's ArrivalCursor. The
// engine's apps are then known, so an empty exact-mode collector
// reserves one response sample for each.
func (e *Engine) InjectSequence(apps []*appmodel.App) {
	e.Apps = append(e.Apps, apps...)
	e.Col.Reserve(len(e.Apps))
	if e.arrivals == nil {
		e.arrivals = NewArrivalCursor(e.K, e.arrive)
	}
	e.arrivals.Schedule(apps)
}

// InjectNow delivers an app immediately (used by live migration and by
// tests). The app keeps its original arrival time for response-time
// accounting.
func (e *Engine) InjectNow(a *appmodel.App) {
	e.Apps = append(e.Apps, a)
	e.arrive(a)
}

// InjectMigrated delivers an app transferred from another board: it
// joins this engine's bookkeeping and the policy's waiting structures.
// The app keeps its original arrival time, so migration latency counts
// against its response time.
func (e *Engine) InjectMigrated(a *appmodel.App) {
	e.Col.RecordMigrationWindow(e.K.Now(), 1)
	e.Apps = append(e.Apps, a)
	e.Active = append(e.Active, a)
	e.acceptOne(a)
	if e.OnQueueUpdate != nil {
		e.OnQueueUpdate()
	}
	e.Activate()
}

// acceptOne hands a to the policy's AcceptMigrated in the engine's
// scratch one-element list; no policy keeps the list it is given.
func (e *Engine) acceptOne(a *appmodel.App) {
	e.one[0] = a
	e.policy.AcceptMigrated(e.one[:])
	e.one[0] = nil
}

func (e *Engine) arrive(a *appmodel.App) {
	if a.State == appmodel.StatePending {
		a.State = appmodel.StateWaiting
	}
	if e.Recorder != nil {
		e.record(trace.Event{Kind: trace.AppArrive, Slot: -1, App: a.String(), Stage: -1, Item: -1})
	}
	e.Active = append(e.Active, a)
	if e.OnAppArrived != nil {
		e.OnAppArrived(a)
	}
	e.policy.AppArrived(a)
	if e.OnQueueUpdate != nil {
		e.OnQueueUpdate()
	}
	e.Activate()
}

// Activate coalesces scheduler invocations: the next pass runs as a job
// on the scheduler core (charging SchedPassCost) unless one is already
// queued.
func (e *Engine) Activate() {
	if e.pendingSched || e.policy == nil {
		return
	}
	e.pendingSched = true
	e.Cores.Sched.SubmitFunc("sched-pass", "sched", e.Params.EffectiveSchedPass(), e.schedPassFn)
}

// RequestPR starts a partial reconfiguration of st into slot. The load
// job runs on the PR core (the scheduler core itself in single-core
// mode — which is exactly how PR blocks launches there). async tags
// the OCM round-trip of the dual-core path.
func (e *Engine) RequestPR(st *appmodel.Stage, slot *fabric.Slot) {
	if st.Class() != slot.Class.Name {
		panic(fmt.Sprintf("sched: stage %v class %q into slot class %q", st, st.Class(), slot.Class.Name))
	}
	bits := e.Repo.MustGet(st.BitstreamName())
	e.evictResident(slot)
	if err := slot.BeginLoad(st); err != nil {
		panic(err)
	}
	st.Attach(slot)
	st.SetLoading(true)
	if e.Trace != nil {
		e.trace("%v PR request %v -> slot %d", e.K.Now(), st, slot.ID)
	}
	if e.Recorder != nil {
		e.record(trace.Event{Kind: trace.PRRequest, Slot: slot.ID, App: st.App.String(), Stage: st.Index(), Item: -1})
	}
	cost := e.PCAP.LoadDuration(bits)
	if !e.Cache.Lookup(bits.Name) {
		cost += e.sdTime(bits.Bytes)
	}
	if e.Cores.Model == hypervisor.DualCore {
		e.Cores.PostPRRequest()
	}
	e.WindowPR++
	// Contention pressure for D_switch: this request is blocked by
	// every load already pending on the serial PCAP path, so the
	// blocked-task count grows by the current depth (a task stuck
	// behind three loads is blocked three times over — matching the
	// paper's N_blocked/N_PR ratios above 1 under heavy sharing).
	e.WindowBlocked += uint64(e.Cores.PR.PendingByClass("pr"))
	e.Col.PRLoads++
	e.Col.PRBytes += bits.Bytes
	e.submitPRJob(st, slot, bits, cost, 0)
}

// submitPRJob queues one PCAP streaming attempt. attempt counts
// fault-injected retries (see prFaultModel): a fault-model failure
// backs off and re-submits up to its retry bound, keeping the slot in
// its loading state, then abandons the placement and crash-restarts
// the app.
func (e *Engine) submitPRJob(st *appmodel.Stage, slot *fabric.Slot, bits *bitstream.Bitstream, cost sim.Duration, attempt int) {
	rt := e.rt(slot)
	rt.prStage, rt.prBits, rt.prCost, rt.prAttempt = st, bits, cost, attempt
	rt.prWaited = 0
	rt.bind()
	e.Cores.PR.SubmitPooled(bits.Name, "pr", cost, rt.prStartFn, rt.prDoneFn)
}

func (rt *slotRT) prStart(wait sim.Duration) {
	rt.prWaited = wait
	if wait > 0 {
		rt.e.Col.PRBlocked++
	}
	rt.e.Col.PRWait += wait
}

func (rt *slotRT) prDone() {
	e := rt.e
	st, slot, bits := rt.prStage, rt.slot, rt.prBits
	cost, attempt, waited := rt.prCost, rt.prAttempt, rt.prWaited
	if slot.Failed() || st.Slot() != slot || !st.Loading() {
		// The slot died or the app crashed mid-load: the transfer's
		// result is discarded and the region torn down (staying failed
		// if the fault persists).
		e.abortLoad(slot)
		return
	}
	if f := e.prFault; f != nil && f.rate > 0 && f.rng.Float64() < f.rate {
		// Injected reconfiguration error (bad flash sector, PCAP
		// hiccup): bounded retry with backoff.
		if attempt < f.maxRetries {
			e.Col.RecordFaultRetry(st.App.ID)
			e.Col.PRRetries++
			delay := f.delay(attempt)
			if e.Trace != nil {
				e.trace("%v PR fault retry %d/%d for %v -> slot %d (backoff %v)",
					e.K.Now(), attempt+1, f.maxRetries, st, slot.ID, delay)
			}
			if rt.prRetryFn == nil {
				rt.prRetryFn = rt.prRetry
			}
			e.K.Schedule(delay, rt.prRetryFn)
			return
		}
		e.failPRPermanently(st, slot)
		return
	}
	e.PCAP.RecordLoad(bits, cost, waited)
	if err := slot.CompleteLoad(); err != nil {
		panic(err)
	}
	st.SetLoading(false)
	if e.Trace != nil {
		e.trace("%v PR done %v -> slot %d (wait %v)", e.K.Now(), st, slot.ID, waited)
	}
	if e.Recorder != nil {
		e.record(trace.Event{Kind: trace.PRDone, Slot: slot.ID, App: st.App.String(), Stage: st.Index(), Item: -1, Wait: waited})
	}
	e.beginResident(slot, st)
	if e.Cores.Model == hypervisor.DualCore {
		e.Cores.PostPRStatus()
	}
	e.Activate()
}

// prRetry re-submits a load after a fault-injected backoff. It reads
// the attempt from rt's PR fields, which no other load can overwrite
// meanwhile: the slot stays SlotLoading through the backoff, so
// nothing else can begin a load into it.
func (rt *slotRT) prRetry() {
	e, st, slot := rt.e, rt.prStage, rt.slot
	if slot.Failed() || st.Slot() != slot || !st.Loading() {
		// Crashed or failed during the backoff.
		if slot.State() == fabric.SlotLoading {
			e.abortLoad(slot)
		}
		return
	}
	e.submitPRJob(st, slot, rt.prBits, rt.prCost, rt.prAttempt+1)
}

// PlaceResident makes st resident in slot instantly, bypassing the
// PCAP. The exclusive baseline uses it after its single full-fabric
// reconfiguration placed all stages at once.
func (e *Engine) PlaceResident(st *appmodel.Stage, slot *fabric.Slot) {
	e.evictResident(slot)
	if err := slot.BeginLoad(st); err != nil {
		panic(err)
	}
	if err := slot.CompleteLoad(); err != nil {
		panic(err)
	}
	st.Attach(slot)
	st.SetLoading(false)
	e.beginResident(slot, st)
}

// EvictStage removes st from its (free) slot, e.g. on preemption or
// slot reuse. Evicting an unfinished stage counts as a preemption.
func (e *Engine) EvictStage(st *appmodel.Stage) {
	slot := st.Slot()
	if slot == nil {
		return
	}
	if !slot.Free() {
		panic(fmt.Sprintf("sched: evicting stage %v from non-free slot %d", st, slot.ID))
	}
	if !st.Finished() && st.Done() > 0 || !st.Finished() && st.App.Started {
		e.Col.Preemptions++
	}
	e.closeResident(slot)
	e.rt(slot).resStage = nil
	st.Evict()
	if err := slot.Clear(); err != nil {
		panic(err)
	}
}

// LaunchItem reserves slot occupancy for st's next item and queues the
// launch on the scheduler core. The slot turns Busy immediately (it is
// committed), but execution begins only when the core gets to the
// launch — queueing behind a PR on single-core systems is the paper's
// task-execution-blocking effect.
func (e *Engine) LaunchItem(st *appmodel.Stage) bool {
	if !st.Launchable() {
		return false
	}
	slot := st.Slot()
	if err := slot.BeginExec(); err != nil {
		panic(err)
	}
	st.SetInFlight(true)
	rt := e.rt(slot)
	idx := st.Done()
	dur := st.ItemTime(idx)
	if f := rt.slowFactor; f > 1 {
		// Straggler injection: the region's service rate is degraded.
		dur = sim.Duration(float64(dur) * f)
	}
	rt.st, rt.idx, rt.dur = st, idx, dur
	rt.armed = true
	rt.bind()
	e.Cores.Sched.SubmitFunc("launch", "launch", e.Params.EffectiveLaunch(), rt.launchFn)
	return true
}

// runLaunch is the scheduler-core body of a launch job: the item enters
// service on the slot's fabric region.
func (rt *slotRT) runLaunch() {
	if !rt.armed {
		// The slot was fault-torn-down (and possibly re-used) while
		// this launch waited on the scheduler core.
		return
	}
	rt.armed = false
	e := rt.e
	st, idx := rt.st, rt.idx
	rt.start = e.K.Now()
	if !st.App.Started {
		st.App.FirstStart = rt.start
	}
	if e.Trace != nil {
		e.trace("%v exec %v item %d on slot %d (%v)", rt.start, st, idx, rt.slot.ID, rt.dur)
	}
	if e.Recorder != nil {
		e.record(trace.Event{Kind: trace.ExecStart, Slot: rt.slot.ID, App: st.App.String(), Stage: st.Index(), Item: idx})
	}
	rt.execEv = e.K.Schedule(rt.dur, rt.execFn)
}

// runExec fires at item completion.
func (rt *slotRT) runExec() {
	e := rt.e
	st, idx, slot := rt.st, rt.idx, rt.slot
	rt.execEv = sim.NoEvent
	if err := slot.CompleteExec(); err != nil {
		panic(err)
	}
	e.Col.AccumulateBusy(st.ImplRes(), e.K.Now().Sub(rt.start))
	st.CompleteItem()
	if e.Recorder != nil {
		e.record(trace.Event{Kind: trace.ExecDone, Slot: slot.ID, App: st.App.String(), Stage: st.Index(), Item: idx})
	}
	if !st.App.Started {
		st.App.Started = true
	}
	if st.App.State == appmodel.StateReady || st.App.State == appmodel.StateWaiting {
		st.App.State = appmodel.StateRunning
	}
	e.itemDone(st)
}

// Pump launches every launchable item of the app. It returns the number
// of launches issued. An app no stage writer has woken since its last
// pump has nothing launchable (see appmodel.App.TakeWake) and costs one
// flag test.
func (e *Engine) Pump(a *appmodel.App) int {
	if !a.TakeWake() {
		return 0
	}
	n := 0
	for i := range a.Stages {
		if e.LaunchItem(&a.Stages[i]) {
			n++
		}
	}
	return n
}

func (e *Engine) itemDone(st *appmodel.Stage) {
	a := st.App
	if a.Done() && a.State != appmodel.StateFinished {
		e.finishApp(a)
	}
	e.Activate()
}

func (e *Engine) finishApp(a *appmodel.App) {
	a.State = appmodel.StateFinished
	a.Finish = e.K.Now()
	if e.Trace != nil {
		e.trace("%v app %v finished (response %v)", e.K.Now(), a, a.Finish.Sub(a.Arrival))
	}
	if e.Recorder != nil {
		e.record(trace.Event{Kind: trace.AppFinish, Slot: -1, App: a.String(), Stage: -1, Item: -1})
	}
	// Release any slots still holding the app's stages.
	for i := range a.Stages {
		st := &a.Stages[i]
		if slot := st.Slot(); slot != nil && slot.Free() {
			e.closeResident(slot)
			e.rt(slot).resStage = nil
			st.Evict()
			if err := slot.Clear(); err != nil {
				panic(err)
			}
		}
	}
	for i, x := range e.Active {
		if x == a {
			e.Active = append(e.Active[:i], e.Active[i+1:]...)
			break
		}
	}
	e.Col.RecordResponse(metrics.ResponseSample{
		AppID:      a.ID,
		Spec:       a.Spec.Name,
		Batch:      a.Batch,
		Arrival:    a.Arrival,
		Finish:     a.Finish,
		Response:   a.ResponseTime(),
		QueueDelay: a.QueueDelay(),
	})
	e.policy.AppFinished(a)
	if e.OnAppFinished != nil {
		e.OnAppFinished(a)
	}
	if e.OnQueueUpdate != nil {
		e.OnQueueUpdate()
	}
}

// RemoveActive detaches an app from the engine without finishing it
// (live migration). The caller must have ensured the app holds no slots.
func (e *Engine) RemoveActive(a *appmodel.App) {
	for i := range a.Stages {
		st := &a.Stages[i]
		if st.Slot() != nil {
			panic(fmt.Sprintf("sched: migrating app %v still holds slot %d", a, st.Slot().ID))
		}
	}
	for i, x := range e.Active {
		if x == a {
			e.Active = append(e.Active[:i], e.Active[i+1:]...)
			break
		}
	}
}

// Forget removes an app from the engine's bookkeeping entirely
// (Active and every Apps occurrence — intra-pair switching can list
// an app in a board's Apps more than once after a there-and-back
// migration) — for migrations that hand the app to a different
// system, whose metrics and D_switch accounting own it from then on.
// Within a switching pair, migrated apps stay in the old board's Apps
// (both boards belong to the same D_switch controller); across pairs
// they must not.
func (e *Engine) Forget(a *appmodel.App) {
	e.RemoveActive(a)
	kept := e.Apps[:0]
	for _, x := range e.Apps {
		if x != a {
			kept = append(kept, x)
		}
	}
	e.Apps = kept
}

func (e *Engine) sdTime(bytes int64) sim.Duration {
	return sim.Duration(float64(bytes) / float64(e.Params.SDBandwidth) * float64(sim.Second))
}

// FullReconfigCost prices the exclusive baseline's whole-fabric swap:
// storage streaming (full bitstreams exceed the DDR staging cache),
// the PCAP transfer, and PS-PL re-initialization.
func (e *Engine) FullReconfigCost(bits *bitstream.Bitstream) sim.Duration {
	cost := e.PCAP.LoadDuration(bits)
	if !e.Params.FullBitstreamCached {
		cost += e.sdTime(bits.Bytes)
	}
	return cost + e.Params.FullReconfigInit
}

func (e *Engine) beginResident(slot *fabric.Slot, st *appmodel.Stage) {
	rt := e.rt(slot)
	rt.resStage = st
	rt.resSince = e.K.Now()
}

// closeResident accumulates the slot's open residency interval and
// re-opens it at now; the caller clears resStage when the stage actually
// leaves the slot.
func (e *Engine) closeResident(slot *fabric.Slot) {
	rt := e.rt(slot)
	if rt.resStage == nil {
		return
	}
	e.Col.AccumulateResidentSpan(rt.resStage.ImplRes(), rt.resSince, e.K.Now())
	rt.resSince = e.K.Now()
}

func (e *Engine) evictResident(slot *fabric.Slot) {
	rt := e.rt(slot)
	if prev := rt.resStage; prev != nil {
		e.closeResident(slot)
		rt.resStage = nil
		prev.Evict()
	}
}

// FlushResidency closes all open residency intervals (end of run) so
// utilization integrals are complete.
func (e *Engine) FlushResidency() {
	for i := range e.slots {
		if e.slots[i].resStage != nil {
			e.closeResident(e.slots[i].slot)
		}
	}
	e.flushFaults()
}

// ResetWindow clears the D_switch counting window and returns the
// counts it held.
func (e *Engine) ResetWindow() (blocked, prs uint64) {
	blocked, prs = e.WindowBlocked, e.WindowPR
	e.WindowBlocked, e.WindowPR = 0, 0
	return blocked, prs
}

// UnfinishedCount returns the number of injected-but-unfinished apps.
func (e *Engine) UnfinishedCount() int {
	n := 0
	for _, a := range e.Apps {
		if a.State != appmodel.StateFinished {
			n++
		}
	}
	return n
}

// CheckQuiescent panics with diagnostics if the kernel ran dry while
// apps remain unfinished — a scheduling deadlock, always a bug.
func (e *Engine) CheckQuiescent() {
	if e.UnfinishedCount() == 0 {
		return
	}
	msg := fmt.Sprintf("sched: %s deadlock at %v: %d apps unfinished:",
		e.policy.Name(), e.K.Now(), e.UnfinishedCount())
	for _, a := range e.Apps {
		if a.State != appmodel.StateFinished {
			msg += fmt.Sprintf("\n  %v state=%v started=%v remaining=%d", a, a.State, a.Started, a.RemainingItems())
			for i := range a.Stages {
				st := &a.Stages[i]
				msg += fmt.Sprintf("\n    stage %d done=%d/%d inflight=%v loading=%v slot=%v",
					st.Index(), st.Done(), a.Batch, st.InFlight(), st.Loading(), st.Slot() != nil)
			}
		}
	}
	panic(msg)
}
