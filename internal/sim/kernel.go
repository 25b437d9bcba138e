package sim

import (
	"fmt"
)

// EventID is a stable handle to a scheduled event: an index into the
// kernel's event arena plus a generation counter. Handles stay valid
// (as no-ops) after the event fires or is canceled — the generation
// check makes a stale handle harmless even after its arena slot has
// been recycled for a newer event. The zero EventID refers to no event.
type EventID uint64

// NoEvent is the zero EventID; it never refers to a live event.
const NoEvent EventID = 0

// Event priority classes. Among events at the same instant, lower
// priorities run first; within a class, sequence order (FIFO) decides.
// The classes order a farm's instants: workload arrivals fire first,
// then farm control (rebalance ticks, rack-link deliveries, cross-pair
// fault chains), then board-local work, which runs on per-pair kernels
// only after the control events of its instant.
const (
	PriArrival     int32 = -2
	PriFarmControl int32 = -1
)

func makeEventID(idx int32, gen uint32) EventID {
	return EventID(uint64(gen)<<32 | uint64(uint32(idx+1)))
}

// split returns the arena index and generation; idx is -1 for NoEvent.
func (id EventID) split() (idx int32, gen uint32) {
	return int32(uint32(id)) - 1, uint32(id >> 32)
}

// Slot lifecycle states of an arena entry.
const (
	slotFree     uint8 = iota // on the free list, gen already bumped
	slotQueued                // live in the queue
	slotCanceled              // canceled but still queued (lazy deletion)
)

// Handler is the action of a kernel event or of a server job's
// completion. Owners pass a pointer to a typed view of their own state
// (for example `type launchEvent slotRT` with a Fire method): a
// pointer converts to an interface without allocating, so an event
// source costs nothing until it fires, and nothing when it does.
type Handler interface {
	Fire()
}

// Func adapts a plain function to a Handler. A func value is a single
// pointer, so the conversion allocates nothing beyond the closure the
// caller already made.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// eventSlot is one arena entry. Events are plain structs addressed by
// index — no per-event heap allocation. The ordering key lives in the
// queue entry, not here; at is kept for EventTime. A free slot's at
// holds the arena index of the next free slot (noNext ends the list),
// so the free list needs no storage of its own.
type eventSlot struct {
	at    Time
	h     Handler
	gen   uint32
	state uint8
}

// qent is one queue entry: the event's ordering key (time, priority,
// sequence) inline next to its arena index, so sift comparisons read
// only the heap slice. 24 bytes.
type qent struct {
	at       Time
	seq      uint64
	priority int32
	idx      int32
}

// less orders queue entries by (time, priority, sequence) — a strict
// total order (sequence numbers are unique), so the pop order is
// independent of where an entry sits (register or heap) and of the
// heap's internal arrangement, and byte-identical to the previous
// container/heap implementation.
func (x *qent) less(y *qent) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	if x.priority != y.priority {
		return x.priority < y.priority
	}
	return x.seq < y.seq
}

// noNext marks the next-event register, and the arena free list, empty.
const noNext int32 = -1

// firstUseCap is the capacity the arena and the heap get on their
// first use. A paper-sweep run's arena peaks at 5–18 events, so 16
// makes almost every run's kernel reach its working size in one
// allocation per slice instead of growing by append from empty.
const firstUseCap = 16

// Kernel is the discrete-event simulation core: a clock and an event
// queue. The queue is a one-entry next-event register in front of an
// inline 4-ary min-heap, both ordered by (time, priority, sequence);
// sequence preserves FIFO order among events scheduled for the same
// instant, which keeps runs deterministic.
//
// Invariant: when the register is set, its entry sorts before every
// heap entry. Most schedules in a VersaSlot run are earlier than
// everything already queued (a launch's completion, the pass that
// follows it), so they take the register in O(1) instead of sifting
// to the heap root and straight back down when popped.
//
// The arena plus a free list give zero steady-state allocation: a fired
// or canceled event's slot is recycled for the next Schedule. The free
// list is threaded through the free slots themselves and is LIFO.
// The zero value is not usable; construct with NewKernel, or Init in
// place. A kernel must not be copied once initialized: its RNG, its
// servers and every queued handler belong to that address.
type Kernel struct {
	_        noCopy
	now      Time
	arena    []eventSlot
	next     qent   // next-event register; next.idx == noNext when empty
	heap     []qent // 4-ary min-heap order
	free     int32  // first free arena slot, or noNext
	live     int    // queued, not-canceled events
	seq      uint64
	rng      RNG
	executed uint64
	maxTime  Time
	jobs     *Job // recycled pooled server jobs, linked through next
}

// NewKernel returns a kernel with its clock at zero and an RNG seeded
// with seed.
func NewKernel(seed uint64) *Kernel {
	k := new(Kernel)
	k.Init(seed)
	return k
}

// Init makes k, in place, a kernel with its clock at zero and an RNG
// seeded with seed, so owners can hold kernels inline (a farm's pairs
// each hold theirs).
func (k *Kernel) Init(seed uint64) {
	*k = Kernel{maxTime: MaxTime, next: qent{idx: noNext}, free: noNext}
	k.rng.Seed(seed)
}

// noCopy makes go vet's copylocks check flag a copied Kernel or
// Server: a copy would keep the original's handlers (a server's
// completion event is a view of the server itself) and split its state.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random source.
func (k *Kernel) RNG() *RNG { return &k.rng }

// Executed returns the number of events executed so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending returns the number of events currently queued (canceled
// events awaiting lazy removal are not counted).
func (k *Kernel) Pending() int { return k.live }

// SetHorizon sets the simulation horizon: events scheduled past t are
// silently dropped when they reach the head of the queue. The default
// horizon is MaxTime (no dropping).
func (k *Kernel) SetHorizon(t Time) { k.maxTime = t }

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics: it would violate causality.
func (k *Kernel) At(t Time, fn func()) EventID {
	return k.at(t, 0, funcHandler(fn))
}

// AtHandler schedules h to fire at absolute time t.
func (k *Kernel) AtHandler(t Time, h Handler) EventID {
	return k.at(t, 0, h)
}

// AtP schedules fn at absolute time t with an explicit priority: lower
// priorities run first among events at the same instant. The farm's
// executor relies on priority classes (arrivals before farm control
// before board-local events) to order each instant across its
// independently advancing kernels.
func (k *Kernel) AtP(t Time, priority int32, fn func()) EventID {
	return k.at(t, priority, funcHandler(fn))
}

// AtPHandler is AtP for a Handler.
func (k *Kernel) AtPHandler(t Time, priority int32, h Handler) EventID {
	return k.at(t, priority, h)
}

// Schedule schedules fn to run d after the current time. Negative d panics.
func (k *Kernel) Schedule(d Duration, fn func()) EventID {
	return k.schedule(d, 0, funcHandler(fn))
}

// ScheduleHandler schedules h to fire d after the current time.
// Negative d panics.
func (k *Kernel) ScheduleHandler(d Duration, h Handler) EventID {
	return k.schedule(d, 0, h)
}

// ScheduleP schedules fn with an explicit priority: lower priorities run
// first among events at the same instant. Use sparingly — the default
// FIFO ordering is almost always right.
func (k *Kernel) ScheduleP(d Duration, priority int32, fn func()) EventID {
	return k.schedule(d, priority, funcHandler(fn))
}

func (k *Kernel) schedule(d Duration, priority int32, h Handler) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.at(k.now.Add(d), priority, h)
}

// funcHandler wraps fn, keeping a nil fn nil so at rejects it.
func funcHandler(fn func()) Handler {
	if fn == nil {
		return nil
	}
	return Func(fn)
}

func (k *Kernel) at(t Time, priority int32, h Handler) EventID {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, k.now))
	}
	if h == nil {
		panic("sim: nil event callback")
	}
	idx := k.free
	if idx != noNext {
		k.free = int32(k.arena[idx].at)
	} else {
		if k.arena == nil {
			k.arena = make([]eventSlot, 0, firstUseCap)
		}
		k.arena = append(k.arena, eventSlot{})
		idx = int32(len(k.arena) - 1)
	}
	s := &k.arena[idx]
	s.at = t
	s.h = h
	s.state = slotQueued
	e := qent{at: t, seq: k.seq, priority: priority, idx: idx}
	k.seq++
	k.live++
	switch {
	case k.next.idx != noNext:
		if e.less(&k.next) {
			// Beats the register, hence everything: displace it.
			k.push(k.next)
			k.next = e
		} else {
			k.push(e)
		}
	case len(k.heap) == 0 || e.less(&k.heap[0]):
		k.next = e
	default:
		k.push(e)
	}
	return makeEventID(idx, s.gen)
}

// Cancel removes a pending event by handle. Canceling an already-fired,
// already-canceled, or zero handle is a no-op, as is a stale handle
// whose slot now hosts a newer event. Cancels are lazy: the entry stays
// queued and is discarded when it reaches the head.
func (k *Kernel) Cancel(id EventID) {
	idx, gen := id.split()
	if idx < 0 || int(idx) >= len(k.arena) {
		return
	}
	s := &k.arena[idx]
	if s.gen != gen || s.state != slotQueued {
		return
	}
	s.state = slotCanceled
	s.h = nil
	k.live--
}

// Scheduled reports whether the handle refers to an event that is still
// queued (not fired, not canceled, not stale).
func (k *Kernel) Scheduled(id EventID) bool {
	idx, gen := id.split()
	if idx < 0 || int(idx) >= len(k.arena) {
		return false
	}
	s := &k.arena[idx]
	return s.gen == gen && s.state == slotQueued
}

// EventTime returns the firing time of a still-queued event.
func (k *Kernel) EventTime(id EventID) (Time, bool) {
	idx, gen := id.split()
	if idx < 0 || int(idx) >= len(k.arena) {
		return 0, false
	}
	s := &k.arena[idx]
	if s.gen != gen || s.state != slotQueued {
		return 0, false
	}
	return s.at, true
}

// release recycles an arena slot onto the head of the free list: the
// generation bump invalidates every outstanding handle to the old
// occupant.
func (k *Kernel) release(idx int32) {
	s := &k.arena[idx]
	s.h = nil
	s.gen++
	s.state = slotFree
	s.at = Time(k.free)
	k.free = idx
}

// Step executes the single next event, advancing the clock to it.
// It reports whether an event was executed.
func (k *Kernel) Step() bool {
	for {
		var idx int32
		switch {
		case k.next.idx != noNext:
			idx = k.next.idx
			k.next.idx = noNext
		case len(k.heap) > 0:
			idx = k.popRoot()
		default:
			return false
		}
		s := &k.arena[idx]
		if s.state == slotCanceled {
			k.release(idx)
			continue
		}
		if s.at > k.maxTime {
			// Past the horizon: drop silently.
			k.live--
			k.release(idx)
			continue
		}
		k.now = s.at
		k.executed++
		k.live--
		h := s.h
		k.release(idx)
		h.Fire()
		return true
	}
}

// Run executes events until the queue is empty or the horizon is reached.
// It returns the final clock value.
func (k *Kernel) Run() Time {
	for k.Step() {
	}
	return k.now
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t (if the clock is behind it).
func (k *Kernel) RunUntil(t Time) Time {
	for {
		at, ok := k.peek()
		if !ok || at > t {
			break
		}
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
	return k.now
}

// RunBefore executes every event with a timestamp strictly before t and
// returns the number executed. Events at exactly t stay queued.
func (k *Kernel) RunBefore(t Time) int {
	n := 0
	for {
		at, ok := k.peek()
		if !ok || at >= t {
			return n
		}
		k.Step()
		n++
	}
}

// RunTo executes every event strictly before bound and returns the
// firing time of the earliest remaining event (MaxTime when the queue
// is empty). It is the conservative-lookahead primitive of farm
// execution: a pair kernel runs ahead to the next control instant in
// one call, and the returned horizon tells the farm the earliest
// instant the pair could next act, so the pair needs no attention
// until the control plane reaches it or that horizon.
func (k *Kernel) RunTo(bound Time) Time {
	for {
		at, ok := k.peek()
		if !ok {
			return MaxTime
		}
		if at >= bound {
			return at
		}
		k.Step()
	}
}

// AdvanceTo bumps the clock forward to t without executing anything.
// It panics if an event earlier than t is still pending (that would
// skip it, violating causality); events at exactly t may remain queued.
// A t at or behind the current clock is a no-op.
func (k *Kernel) AdvanceTo(t Time) {
	if t <= k.now {
		return
	}
	if at, ok := k.peek(); ok && at < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) past pending event at %v", t, at))
	}
	k.now = t
}

// NextAt returns the firing time of the earliest pending event.
func (k *Kernel) NextAt() (Time, bool) { return k.peek() }

// peek returns the firing time of the next live event, discarding
// canceled entries off the head: the register first, then the heap
// root.
func (k *Kernel) peek() (Time, bool) {
	if idx := k.next.idx; idx != noNext {
		if k.arena[idx].state != slotCanceled {
			return k.next.at, true
		}
		k.next.idx = noNext
		k.release(idx)
	}
	for len(k.heap) > 0 {
		idx := k.heap[0].idx
		if k.arena[idx].state == slotCanceled {
			k.popRoot()
			k.release(idx)
			continue
		}
		return k.heap[0].at, true
	}
	return 0, false
}

// push appends an entry and sifts it up the 4-ary heap.
func (k *Kernel) push(e qent) {
	if k.heap == nil {
		k.heap = make([]qent, 0, firstUseCap)
	}
	k.heap = append(k.heap, e)
	h := k.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.less(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// popRoot removes the minimum heap entry and returns its arena index.
func (k *Kernel) popRoot() int32 {
	h := k.heap
	root := h[0].idx
	n := len(h) - 1
	last := h[n]
	k.heap = h[:n]
	if n == 0 {
		return root
	}
	// Sift last down from the root. A 4-ary layout halves the tree
	// height versus binary and keeps the four children of a node
	// adjacent: 96 bytes of the entry slice.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].less(&h[best]) {
				best = j
			}
		}
		if !h[best].less(&last) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = last
	return root
}
