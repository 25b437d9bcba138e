package sched

import (
	"fmt"
	"slices"

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

	// arrivals delivers InjectSequence's arrivals to arrive; its kernel
	// is set at the first injection.
	arrivals ArrivalCursor

	// own holds the fixed per-board parts Cores, PCAP, Cache and Col
	// point at, so they share the Engine's allocation.
	own struct {
		cores hypervisor.Cores
		pcap  pcap.Device
		cache bitstream.Cache
		col   metrics.Collector
	}

	// slots holds the per-slot hot-path runtime state, indexed by
	// fabric.Slot.ID. At most one launch, one executing item, and one
	// PCAP load can be in flight per slot at a time, so the state of
	// each is a slot-indexed record, not an allocation, and the slot's
	// events are typed views of that record (see launchEvent).
	slots []slotRT

	// prFault, when set, injects bounded-retry reconfiguration errors.
	prFault *prFaultModel
	// one is the scratch one-element list acceptOne hands the policy.
	one [1]*appmodel.App
	// checkpointed makes crash restarts keep per-stage batch progress.
	checkpointed bool

	// pair, when set, is the switching pair the board belongs to (see
	// Pair).
	pair Pair

	// OnAppFinished fires after an app completes, after the pair has
	// counted it and the finish event is emitted (the orchestrator's
	// tenant accounting wraps it).
	OnAppFinished func(*appmodel.App)

	// Events, when non-nil, receives the board's events; nil in
	// untraced runs, which build none.
	Events trace.Sink

	// WindowBlocked counts, since the last external reset, tasks whose
	// PR waited behind another load: the numerator feeding D_switch.
	WindowBlocked uint64
}

// emit stamps ev with the clock and the board and hands it to Events.
// Every call site checks Events first, so a run without a sink never
// builds an event.
func (e *Engine) emit(ev trace.Event) {
	ev.At, ev.Board = e.K.Now(), e.Board.ID
	e.Events.Emit(ev)
}

// slotRT is the per-slot runtime record backing the engine's hot paths.
// The fabric guarantees at most one launch, one executing item, and one
// PCAP load in flight per slot (a slot is Busy from BeginExec to
// CompleteExec and Loading from BeginLoad to CompleteLoad/abort), so
// each activity's state lives in plain fields written at submission and
// read when its event fires.
type slotRT struct {
	e    *Engine
	slot *fabric.Slot

	// Residency-interval tracking for utilization integrals.
	resStage *appmodel.Stage
	resSince sim.Time

	// In-flight launch/exec state. armed marks the slot's current
	// launch as queued on the scheduler core. A fault that tears the
	// slot down disarms it and counts it in stale instead: the slot can
	// be re-placed and launch again (from a PR-core completion) before
	// the core reaches the dead launch, but the core is FIFO, so the
	// first stale launches of the slot it reaches are the dead ones,
	// and runLaunch skips that many.
	st     *appmodel.Stage
	idx    int
	dur    sim.Duration
	armed  bool
	stale  int
	execEv sim.EventID

	// Fault state (see fault.go).
	down       bool
	downSince  sim.Time
	slowFactor float64 // > 1 degrades service (straggler); else nominal

	// PR-attempt state for the PCAP events, stable from submission to
	// completion.
	prStage   *appmodel.Stage
	prBits    *bitstream.Bitstream
	prCost    sim.Duration
	prAttempt int
	prWaited  sim.Duration
}

// A slot's events are typed views of its slotRT. A *slotRT converts to
// each without allocating, so submitting a launch, an item, a load or
// a retry costs nothing, however many slots a run touches.
type (
	// launchEvent is the scheduler-core launch job (runLaunch).
	launchEvent slotRT
	// execEvent is an item's completion (runExec).
	execEvent slotRT
	// prEvent is the PCAP load job: Started observes its queueing wait
	// (prStart), Fire its completion (prDone).
	prEvent slotRT
	// prRetryEvent re-submits a load after a fault-injected backoff
	// (prRetry).
	prRetryEvent slotRT
)

func (ev *launchEvent) Fire()                 { (*slotRT)(ev).runLaunch() }
func (ev *execEvent) Fire()                   { (*slotRT)(ev).runExec() }
func (ev *prEvent) Started(wait sim.Duration) { (*slotRT)(ev).prStart(wait) }
func (ev *prEvent) Fire()                     { (*slotRT)(ev).prDone() }
func (ev *prRetryEvent) Fire()                { (*slotRT)(ev).prRetry() }

// The engine's own events are typed views of the Engine, for the same
// reason: schedPassEvent is the coalesced scheduler pass Activate
// submits, activateEvent a timed wake-up policies schedule.
type (
	schedPassEvent Engine
	activateEvent  Engine
)

func (ev *schedPassEvent) Fire() {
	e := (*Engine)(ev)
	e.pendingSched = false
	e.policy.Schedule()
}

func (ev *activateEvent) Fire() { (*Engine)(ev).Activate() }

// activation returns the event that runs Activate, for policies that
// schedule wake-ups.
func (e *Engine) activation() sim.Handler { return (*activateEvent)(e) }

// engineArrival receives the engine's ArrivalCursor walk.
type engineArrival Engine

func (ev *engineArrival) Deliver(a *appmodel.App) { (*Engine)(ev).arrive(a) }

// rt returns the runtime record of a slot. Slot IDs are indices into the
// board's slot list (see fabric.Board.Init), so this is a direct index.
func (e *Engine) rt(s *fabric.Slot) *slotRT { return &e.slots[s.ID] }

// Pair is the switching pair that owns an engine: the engine reports
// each candidate-queue change, completion and crash restart to it. The
// cluster passes a typed view of itself, so the calls allocate nothing.
type Pair interface {
	// QueueUpdated runs on every candidate-queue change: an arrival, a
	// completion, a migrated-in or a crash-restarted app. The D_switch
	// controller recomputes on a cadence of these.
	QueueUpdated()
	// AppFinished runs when an app completes on e, before its finish
	// event and OnAppFinished.
	AppFinished(a *appmodel.App)
	// AppCrashed may re-home an app crash-restarted on e (the cluster
	// moves apps crashed on a frozen, draining board to the active
	// one). True means it re-queued the app elsewhere.
	AppCrashed(e *Engine, a *appmodel.App) bool
}

// SetPair makes the engine report to p; nil detaches it.
func (e *Engine) SetPair(p Pair) { e.pair = p }

// Pair returns the pair the engine reports to, or nil.
func (e *Engine) Pair() Pair { return e.pair }

// queueUpdated tells the pair, if any, that the candidate queue changed.
func (e *Engine) queueUpdated() {
	if e.pair != nil {
		e.pair.QueueUpdated()
	}
}

// NewEngine wires a board's execution machinery together; its slot
// records take one allocation.
func NewEngine(k *sim.Kernel, p Params, board *fabric.Board, model hypervisor.CoreModel, repo *bitstream.Repository) *Engine {
	e := new(Engine)
	e.init(k, p, board, model, repo, make([]slotRT, len(board.Slots)))
	return e
}

// init wires a board's execution machinery together in place, with
// the slot records taken from slots, which must hold one per board
// slot. An engine must not be copied once initialized: its events are
// views of the engine and of its slot records.
func (e *Engine) init(k *sim.Kernel, p Params, board *fabric.Board, model hypervisor.CoreModel, repo *bitstream.Repository, slots []slotRT) {
	*e = Engine{K: k, Params: p, Board: board, Repo: repo, slots: slots}
	e.own.cores.Init(k, model, board.ID)
	e.own.pcap.Init(p.PCAPBandwidth, p.PCAPOverhead)
	e.own.cache.Init(p.CacheEntries)
	e.own.col.Init(board.Platform.SlotCapacity())
	e.Cores, e.PCAP, e.Cache, e.Col = &e.own.cores, &e.own.pcap, &e.own.cache, &e.own.col
	for i, s := range board.Slots {
		e.slots[i].e = e
		e.slots[i].slot = s
	}
}

// BoardPool builds boards one at a time: each board with its engine,
// slot records and the policy of a registration, on the registration's
// control-plane model and the platform's shared bitstream repository.
// It carves boards with their engines, slabs, slot records and the
// VersaSlot policies from storage it allocates in chunks that double in
// size, so building n boards takes O(log n) allocations per component
// kind whether they are built together or far apart; any other policy
// comes from its registration's factory. A pool is not safe for
// concurrent use. The zero value is ready: a pool that builds one board
// allocates exactly that board's storage.
type BoardPool struct {
	chunk int
	// bounded is set by Expect; rest is then what the boards expected
	// but not built yet need, and caps every chunk.
	bounded bool
	rest    struct{ boards, slots, classes, ol, bl int }

	boards []poolBoard
	slab   fabric.Slab
	slots  []slotRT
	ol     []versaSlotOL
	bl     []VersaSlotBL
}

// poolBoard is a board and the engine that drives it, carved together.
type poolBoard struct {
	board  fabric.Board
	engine Engine
}

// Expect tells the pool that a board of platform p driven by policy r
// may be built. Once told, no chunk reserves room beyond what the
// boards still expected need, so a pool that builds every expected
// board has none to spare.
func (bp *BoardPool) Expect(p *fabric.Platform, r *Registration) {
	bp.bounded = true
	bp.rest.boards++
	bp.rest.slots += p.SlotCount()
	bp.rest.classes += len(p.Classes)
	switch r {
	case regBL:
		bp.rest.bl++
	case regOL:
		bp.rest.ol++
	}
}

// size returns how many entries of a kind to allocate: want, capped at
// rest when the pool is bounded, and never fewer than need.
func (bp *BoardPool) size(want, rest, need int) int {
	if bp.bounded {
		want = min(want, rest)
	}
	return max(want, need)
}

// Build builds board id of platform on kernel k, driven by policy r,
// and returns its engine. A frozen engine (a switching pair's spare) is
// frozen before its policy is installed, so freezing submits no
// scheduler pass.
func (bp *BoardPool) Build(id int, platform *fabric.Platform, p Params, k *sim.Kernel, frozen bool, r *Registration) *Engine {
	rest := &bp.rest
	if len(bp.boards) == 0 {
		bp.chunk = bp.size(2*bp.chunk, rest.boards, 1)
		bp.boards = make([]poolBoard, bp.chunk)
	}
	// The other kinds refill sized for the boards left in the chunk, so
	// a pool of one platform takes exactly a chunk of each.
	left, n, c := len(bp.boards), platform.SlotCount(), len(platform.Classes)
	if !bp.slab.Fits(platform) {
		bp.slab = fabric.MakeSlab(bp.size(left*n, rest.slots, n), bp.size(left*c, rest.classes, c))
	}
	if len(bp.slots) < n {
		bp.slots = make([]slotRT, bp.size(left*n, rest.slots, n))
	}
	b, e := &bp.boards[0].board, &bp.boards[0].engine
	bp.boards = bp.boards[1:]
	b.Init(id, platform, &bp.slab)
	e.init(k, p, b, r.Core, bitstream.RepoFor(platform), bp.slots[:n:n])
	bp.slots = bp.slots[n:]
	e.frozen = frozen
	rest.boards, rest.slots, rest.classes = rest.boards-1, rest.slots-n, rest.classes-c
	switch r {
	case regBL:
		if len(bp.bl) == 0 {
			bp.bl = make([]VersaSlotBL, bp.size(left, rest.bl, 1))
		}
		rest.bl--
		e.SetPolicy(&bp.bl[0])
		bp.bl = bp.bl[1:]
	case regOL:
		if len(bp.ol) == 0 {
			bp.ol = make([]versaSlotOL, bp.size(left, rest.ol, 1))
		}
		rest.ol--
		e.SetPolicy(&bp.ol[0])
		bp.ol = bp.ol[1:]
	default:
		e.SetPolicy(r.Factory())
	}
	return e
}

// DisableBitstreamCache models control planes without a DDR bitstream
// store (pre-Nimblock systems like the FCFS/RR comparators): every
// partial reconfiguration re-streams its bitstream from the SD card.
func (e *Engine) DisableBitstreamCache() {
	e.own.cache.Init(0)
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
// engine's apps are then known, so Active gets room for every one of
// them and an empty exact-mode collector reserves one response sample
// for each.
func (e *Engine) InjectSequence(apps []*appmodel.App) {
	e.Apps = append(e.Apps, apps...)
	e.Active = slices.Grow(e.Active, len(e.Apps)-len(e.Active))
	e.Col.Reserve(len(e.Apps))
	if e.arrivals.k == nil {
		e.arrivals = ArrivalCursor{k: e.K, deliver: (*engineArrival)(e)}
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
	e.queueUpdated()
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
	e.Active = append(e.Active, a)
	if e.Events != nil {
		e.emit(trace.Event{Kind: trace.AppArrive, Slot: -1, App: a})
	}
	e.policy.AppArrived(a)
	e.queueUpdated()
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
	e.Cores.Sched.SubmitPooled("sched-pass", "sched", e.Params.EffectiveSchedPass(), nil, (*schedPassEvent)(e))
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
	if e.Events != nil {
		e.emit(trace.Event{Kind: trace.PRRequest, Slot: slot.ID, Stage: st})
	}
	cost := e.PCAP.LoadDuration(bits)
	if !e.Cache.Lookup(bits.Name) {
		cost += e.sdTime(bits.Bytes)
	}
	if e.Cores.Model == hypervisor.DualCore {
		e.Cores.PostPRRequest()
	}
	// Contention pressure for D_switch: this request is blocked by
	// every load already pending on the serial PCAP path, so the
	// blocked-task count grows by the current depth (a task stuck
	// behind three loads is blocked three times over — matching the
	// paper's N_blocked/N_PR ratios above 1 under heavy sharing).
	e.WindowBlocked += uint64(e.Cores.PR.PendingByClass("pr"))
	e.Col.PRLoads++
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
	e.Cores.PR.SubmitPooled(bits.Name, "pr", cost, (*prEvent)(rt), (*prEvent)(rt))
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
			if e.Events != nil {
				e.emit(trace.Event{Kind: trace.PRRetry, Slot: slot.ID, Stage: st,
					Attempt: attempt + 1, Retries: f.maxRetries, Dur: delay})
			}
			e.K.ScheduleHandler(delay, (*prRetryEvent)(rt))
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
	if e.Events != nil {
		e.emit(trace.Event{Kind: trace.PRDone, Slot: slot.ID, Stage: st, Dur: waited})
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
	e.Cores.Sched.SubmitPooled("launch", "launch", e.Params.EffectiveLaunch(), nil, (*launchEvent)(rt))
	return true
}

// runLaunch is the scheduler-core body of a launch job: the item enters
// service on the slot's fabric region.
func (rt *slotRT) runLaunch() {
	if rt.stale > 0 {
		// The slot was fault-torn-down (and possibly re-used) while
		// this launch waited on the scheduler core.
		rt.stale--
		return
	}
	rt.armed = false
	e := rt.e
	st, idx := rt.st, rt.idx
	if !st.App.Started {
		st.App.FirstStart = e.K.Now()
	}
	if e.Events != nil {
		e.emit(trace.Event{Kind: trace.ExecStart, Slot: rt.slot.ID, Stage: st, Item: idx, Dur: rt.dur})
	}
	rt.execEv = e.K.ScheduleHandler(rt.dur, (*execEvent)(rt))
}

// runExec fires at item completion.
func (rt *slotRT) runExec() {
	e := rt.e
	st, idx, slot := rt.st, rt.idx, rt.slot
	rt.execEv = sim.NoEvent
	if err := slot.CompleteExec(); err != nil {
		panic(err)
	}
	st.CompleteItem()
	if e.Events != nil {
		e.emit(trace.Event{Kind: trace.ExecDone, Slot: slot.ID, Stage: st, Item: idx})
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
	if e.pair != nil {
		e.pair.AppFinished(a)
	}
	if e.Events != nil {
		e.emit(trace.Event{Kind: trace.AppFinish, Slot: -1, App: a, Dur: a.Finish.Sub(a.Arrival)})
	}
	if e.OnAppFinished != nil {
		e.OnAppFinished(a)
	}
	e.queueUpdated()
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
// blocked count it held.
func (e *Engine) ResetWindow() uint64 {
	blocked := e.WindowBlocked
	e.WindowBlocked = 0
	return blocked
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
	msg := fmt.Sprintf("sched: %T deadlock at %v: %d apps unfinished:",
		e.policy, e.K.Now(), e.UnfinishedCount())
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
