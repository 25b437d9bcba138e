package cluster

import (
	"runtime"
	"sync/atomic"

	"versaslot/internal/sim"
)

// Sharded farm execution: conservative lookahead synchronization.
//
// The coordinator kernel f.K holds exactly the control plane: arrival
// dispatch (PriArrival), rebalance ticks, rack-link transfers,
// orchestrator pump/autoscale ticks and fault-injector chains
// (PriFarmControl). Pair-local events live on the per-pair kernels,
// and pair events never schedule onto f.K (completions only bump the
// farm's per-pair counters), so the coordinator's event queue is never
// extended from a worker.
//
// The next coordinator instant T is therefore the earliest possible
// cross-shard interaction: a control event at T may inject into any
// pair, strike any slot, or deliver a migration. Every pair is free to
// run ahead to T — conservative lookahead — and a pair whose earliest
// pending event lies at or past T needs no synchronization at all for
// this instant. The coordinator tracks each pair's horizon (pnext) and
// each worker's minimum over its pairs (wnext) so that an epoch costs:
//
//   - nothing per idle shard: wnext is a plain array read, no peek of
//     the pair kernel's heap and no clock write;
//   - a single RunTo per event-bearing pair, issued either inline on
//     the coordinator (one worker, at most inlinePairMax pairs — the
//     common one-dispatch epoch) or on the owning workers;
//   - one atomic post/acknowledge round per woken worker, with
//     spin-then-park waiting instead of per-epoch futex round-trips.
//
// The coordinator owns shard 0 itself: worker 0 has no goroutine, and
// the coordinator runs its pair range between posting the other woken
// workers and awaiting them (and drains it inline at finish), so a
// width-w run has w-1 worker goroutines and the coordinator works
// instead of yielding while they run. Both paths share runRange.
//
// Clocks advance lazily: a pair's clock is stamped to the coordinator
// instant only when a control event actually touches the pair
// (Farm.TouchPair — dispatch injection, migration delivery or requeue,
// fault strikes), not at every instant for every pair as the old
// barrier loop did. Horizons fold back in after each drained instant:
// touching a pair only ever adds events, so its horizon only moves
// earlier and the per-worker minimum updates in O(1).
//
// Determinism: control events at T execute on f.K in (time, priority,
// sequence) order exactly as sequentially; every pair event strictly
// before T has executed by then (workers with wnext < T are woken and
// awaited first); pair events at exactly T run under the next bound,
// which matches the sequential order because control priorities sort
// ahead of same-instant pair events. The merged run is byte-identical
// to the sequential one — enforced by TestShardedMatchesSequential and
// the orchestrated matrix under -race.

// Command sentinels posted in place of a run-ahead bound; event times
// are never negative.
const (
	drainCmd = sim.Time(-1) // run every remaining event (final drain)
	stopCmd  = sim.Time(-2) // exit the worker goroutine
)

// spinBudget is how many scheduler yields a worker burns waiting for
// its next command before parking on its wake channel. Control
// instants cluster (bursty arrivals, rebalance fan-out), so a short
// spin catches the next bound without a futex round-trip; a worker
// that stays idle parks and costs nothing until the coordinator
// unparks it.
const spinBudget = 128

// inlinePairMax bounds the coordinator's inline path: when one worker
// owns every event-bearing pair of an epoch and there are at most this
// many, the coordinator runs them itself instead of waking the worker.
const inlinePairMax = 2

// shardWorker owns the contiguous pair range [lo, hi). Worker 0's
// range runs on the coordinator; every other worker is a persistent
// goroutine. The coordinator posts commands by storing bound and
// bumping epoch; the worker acknowledges by storing the epoch into
// done after executing. At most one command is ever outstanding, and
// the atomics carry the happens-before edges that make the shared
// pnext array and the pair kernels safe to hand back and forth.
type shardWorker struct {
	lo, hi int

	epoch  atomic.Uint64 // incremented per posted command
	bound  atomic.Int64  // command payload: run-ahead bound or sentinel
	done   atomic.Uint64 // last epoch acknowledged by the worker
	parked atomic.Bool   // worker is (about to be) blocked on wake
	wake   chan struct{} // unpark token, buffered for one command

	// next is the worker's published horizon: the minimum pending-event
	// time over its pairs after the last command. Written before the
	// done store, read after observing it.
	next sim.Time
}

// shardCoord drives one sharded run. All scratch is preallocated: a
// warm epoch with no cross-shard events allocates nothing (enforced by
// TestShardEpochZeroAlloc).
type shardCoord struct {
	f       *Farm
	workers []*shardWorker
	shardOf []int32    // pair -> owning worker
	pnext   []sim.Time // per-pair horizon (MaxTime = no pending events)
	wnext   []sim.Time // per-worker min horizon, coordinator's copy

	need        []int   // scratch: workers to wake this epoch
	inline      []int   // scratch: pair indices for the inline path
	touched     []int32 // pairs control events touched this instant
	touchedMark []bool
}

func (f *Farm) newShardCoord() *shardCoord {
	nw := f.shards
	n := len(f.pairK)
	c := &shardCoord{
		f:           f,
		workers:     make([]*shardWorker, nw),
		shardOf:     make([]int32, n),
		pnext:       make([]sim.Time, n),
		wnext:       make([]sim.Time, nw),
		need:        make([]int, 0, nw),
		inline:      make([]int, 0, inlinePairMax),
		touched:     make([]int32, 0, n),
		touchedMark: make([]bool, n),
	}
	for i := range f.pairK {
		c.pnext[i] = sim.MaxTime
		if nx, ok := f.pairK[i].NextAt(); ok {
			c.pnext[i] = nx
		}
	}
	for w := 0; w < nw; w++ {
		sw := &shardWorker{
			lo:   w * n / nw,
			hi:   (w + 1) * n / nw,
			wake: make(chan struct{}, 1),
		}
		min := sim.MaxTime
		for i := sw.lo; i < sw.hi; i++ {
			c.shardOf[i] = int32(w)
			if c.pnext[i] < min {
				min = c.pnext[i]
			}
		}
		c.wnext[w] = min
		c.workers[w] = sw
		if w > 0 {
			go c.worker(sw)
		}
	}
	f.coord = c
	return c
}

// post hands a command to a worker. The bound store is published by the
// epoch bump; the park flag hand-off guarantees exactly one wake token
// per parked worker (see worker for the other half of the protocol).
func (c *shardCoord) post(w *shardWorker, b sim.Time) {
	w.bound.Store(int64(b))
	w.epoch.Add(1)
	if w.parked.CompareAndSwap(true, false) {
		w.wake <- struct{}{}
	}
}

// wait spins until the worker acknowledges the last posted command.
// Worker phases are short (a few pair-event batches), so yielding
// beats blocking here — and on a single CPU the yield is what lets the
// worker run at all.
func (c *shardCoord) wait(w *shardWorker) {
	e := w.epoch.Load()
	for w.done.Load() != e {
		runtime.Gosched()
	}
}

// worker is the persistent per-shard loop: spin for the next command,
// park when none comes, execute, acknowledge.
func (c *shardCoord) worker(w *shardWorker) {
	last := uint64(0)
	for {
		for w.epoch.Load() == last {
			for spun := 0; w.epoch.Load() == last && spun < spinBudget; spun++ {
				runtime.Gosched()
			}
			if w.epoch.Load() != last {
				break
			}
			w.parked.Store(true)
			if w.epoch.Load() != last {
				// A command raced the park: either the coordinator saw
				// the flag and a token is in flight, or we retract the
				// flag ourselves and proceed without one.
				if !w.parked.CompareAndSwap(true, false) {
					<-w.wake
				}
				break
			}
			<-w.wake
		}
		last = w.epoch.Load()
		b := sim.Time(w.bound.Load())
		if b == stopCmd {
			w.done.Store(last)
			return
		}
		c.runRange(w, b)
		w.done.Store(last)
	}
}

// runRange executes one command — a run-ahead bound or drainCmd — over
// w's pairs and publishes their minimum horizon in w.next. Only pairs
// whose horizon lies before the bound are visited — the pnext array
// makes skipping an idle pair a single load instead of a heap peek.
func (c *shardCoord) runRange(w *shardWorker, b sim.Time) {
	ks := c.f.pairK
	if b == drainCmd {
		for i := w.lo; i < w.hi; i++ {
			ks[i].Run()
			c.pnext[i] = sim.MaxTime
		}
		w.next = sim.MaxTime
		return
	}
	min := sim.MaxTime
	for i := w.lo; i < w.hi; i++ {
		nx := c.pnext[i]
		if nx < b {
			nx = ks[i].RunTo(b)
			c.pnext[i] = nx
		}
		if nx < min {
			min = nx
		}
	}
	w.next = min
}

// tryInline runs a single worker's event-bearing pairs on the
// coordinator goroutine when there are at most inlinePairMax of them —
// the dominant epoch shape (one dispatched arrival wakes one pair).
// The worker stays parked; its published horizon is recomputed here.
// Returns false (having run nothing) when the epoch is too busy.
func (c *shardCoord) tryInline(wIdx int, t sim.Time) bool {
	w := c.workers[wIdx]
	c.inline = c.inline[:0]
	for i := w.lo; i < w.hi; i++ {
		if c.pnext[i] < t {
			if len(c.inline) == inlinePairMax {
				return false
			}
			c.inline = append(c.inline, i)
		}
	}
	for _, i := range c.inline {
		c.pnext[i] = c.f.pairK[i].RunTo(t)
	}
	min := sim.MaxTime
	for i := w.lo; i < w.hi; i++ {
		if c.pnext[i] < min {
			min = c.pnext[i]
		}
	}
	c.wnext[wIdx] = min
	return true
}

// step executes one coordinator instant: grant every shard the
// lookahead bound T = next control time (waking only the workers whose
// horizon lies before it, and running shard 0 inline), drain every
// control event at exactly T, then fold the pairs those events touched
// back into the horizons. Returns false once the control queue is
// empty.
func (c *shardCoord) step() bool {
	f := c.f
	t, ok := f.K.NextAt()
	if !ok {
		return false
	}
	c.need = c.need[:0]
	for w, nx := range c.wnext {
		if nx < t {
			c.need = append(c.need, w)
		}
	}
	if !(len(c.need) == 0 || (len(c.need) == 1 && c.tryInline(c.need[0], t))) {
		for _, w := range c.need {
			if w > 0 {
				c.post(c.workers[w], t)
			}
		}
		// need is ascending, so shard 0 runs while the others do.
		for _, w := range c.need {
			sw := c.workers[w]
			if w == 0 {
				c.runRange(sw, t)
			} else {
				c.wait(sw)
			}
			c.wnext[w] = sw.next
		}
	}
	for {
		f.K.Step()
		if next, ok := f.K.NextAt(); !ok || next > t {
			break
		}
	}
	// Control events only ever add pair events, so a touched pair's
	// horizon can only move earlier and the worker minimum updates
	// without a rescan.
	for _, p := range c.touched {
		c.touchedMark[p] = false
		if nx, ok := f.pairK[p].NextAt(); ok && nx < c.pnext[p] {
			c.pnext[p] = nx
			if w := c.shardOf[p]; nx < c.wnext[w] {
				c.wnext[w] = nx
			}
		}
	}
	c.touched = c.touched[:0]
	return true
}

// finish runs every pair kernel dry in parallel once the control queue
// has emptied (shard 0 on the coordinator), then advances all clocks
// to the global end time so residency and availability integrals flush
// against the same horizon a shared kernel would have had, and shuts
// the workers down.
func (c *shardCoord) finish() {
	f := c.f
	rest := c.workers[1:]
	for _, w := range rest {
		c.post(w, drainCmd)
	}
	c.runRange(c.workers[0], drainCmd)
	for _, w := range rest {
		c.wait(w)
	}
	endT := f.K.Now()
	for i := range f.pairK {
		if t := f.pairK[i].Now(); t > endT {
			endT = t
		}
	}
	f.K.AdvanceTo(endT)
	for i := range f.pairK {
		f.pairK[i].AdvanceTo(endT)
	}
	for _, w := range rest {
		c.post(w, stopCmd)
	}
	f.coord = nil
}

// runSharded executes the farm with one persistent goroutine per
// shard but the first, which the coordinator runs itself, synchronized
// by conservative lookahead (see the comment at the top of this file).
// The merged run is byte-identical to the sequential one.
func (f *Farm) runSharded() {
	c := f.newShardCoord()
	for c.step() {
	}
	c.finish()
}

// TouchPair stamps pair i's clock to the current coordinator instant
// and records the touch so the pair's lookahead horizon is re-read
// after the instant drains. Every control-plane action that reaches
// into a pair — dispatch injection, migration delivery or requeue,
// fault strikes — must touch the pair first: the pair's clock lags at
// its last executed event until then, and an injection against the
// stale clock would land in the pair's past. No-op on the sequential
// path, where every pair shares the coordinator kernel.
func (f *Farm) TouchPair(i int) {
	c := f.coord
	if c == nil {
		return
	}
	f.pairK[i].AdvanceTo(f.K.Now())
	if !c.touchedMark[i] {
		c.touchedMark[i] = true
		c.touched = append(c.touched, int32(i))
	}
}
