package pipeline

import (
	"versaslot/internal/sim"
)

// Plan describes a pipeline to evaluate: per-stage item times plus the
// per-stage reconfiguration cost paid when a slot (re)loads a stage.
type Plan struct {
	// StageTimes is the steady-state per-item time of each stage.
	StageTimes []sim.Duration
	// FirstItemExtra is the additional latency of each stage's first
	// item (parallel 3-in-1 bundles pay their internal fill here).
	FirstItemExtra []sim.Duration
	// Batch is the number of items flowing through the pipeline.
	Batch int
	// LoadTime is the PR cost to place one stage into a slot.
	LoadTime sim.Duration
}

// Eval amortizes Makespan's scratch buffers across calls: the slot
// allocators probe every candidate count for every arriving application,
// so per-call buffer allocation dominated their cost. The zero value is
// ready to use; an Eval is not safe for concurrent use.
type Eval struct {
	prev, cur, slotFree []sim.Duration
}

func (ev *Eval) buffers(batch, slots int) (prev, cur, slotFree []sim.Duration) {
	if cap(ev.prev) < batch {
		ev.prev = make([]sim.Duration, batch)
		ev.cur = make([]sim.Duration, batch)
	}
	if cap(ev.slotFree) < slots {
		ev.slotFree = make([]sim.Duration, slots)
	}
	prev, cur, slotFree = ev.prev[:batch], ev.cur[:batch], ev.slotFree[:slots]
	for i := range prev {
		prev[i], cur[i] = 0, 0
	}
	for i := range slotFree {
		slotFree[i] = 0
	}
	return prev, cur, slotFree
}

// Makespan returns the end-to-end time to push Batch items through the
// pipeline using exactly slots slots, under the greedy reuse policy the
// schedulers implement: stage i initially occupies slot i%slots; a slot
// reloads the next unassigned stage as soon as its current stage
// completes the batch. Item b of stage i starts when (a) the stage is
// loaded, (b) item b-1 of stage i finished (one item in flight per
// slot), and (c) item b of stage i-1 finished.
//
// The returned value excludes PCAP queueing and CPU scheduling costs —
// it is the contention-free lower bound the allocator optimizes.
func (p Plan) Makespan(slots int) sim.Duration {
	var ev Eval
	return p.MakespanIn(&ev, slots)
}

// MakespanIn is Makespan drawing its scratch from ev.
func (p Plan) MakespanIn(ev *Eval, slots int) sim.Duration {
	k := len(p.StageTimes)
	if k == 0 || p.Batch <= 0 {
		return 0
	}
	if slots <= 0 {
		panic("pipeline: non-positive slot count")
	}
	if slots > k {
		slots = k
	}
	// finish[i] tracks the completion time of stage i's latest item;
	// slotFree[j] the time slot j finished its previous stage's batch.
	prev, cur, slotFree := ev.buffers(p.Batch, slots)
	for i := 0; i < k; i++ {
		j := i % slots
		loaded := slotFree[j] + p.LoadTime
		var last sim.Duration
		for b := 0; b < p.Batch; b++ {
			start := loaded
			if b > 0 && last > start {
				start = last
			}
			if i > 0 && prev[b] > start {
				start = prev[b]
			}
			t := p.StageTimes[i]
			if b == 0 && i < len(p.FirstItemExtra) {
				t += p.FirstItemExtra[i]
			}
			last = start + t
			cur[b] = last
		}
		slotFree[j] = last
		prev, cur = cur, prev
	}
	var max sim.Duration
	for b := 0; b < p.Batch; b++ {
		if prev[b] > max {
			max = prev[b]
		}
	}
	return max
}

// kneeTolerance defines "efficient": the optimal count is the smallest
// one whose makespan is within this factor of the best achievable.
// Adding slots past the knee buys almost nothing (the bottleneck stage
// limits throughput) but starves other applications — which is why the
// ILP of [14], [15] lands below the task count.
const kneeTolerance = 1.15

// OptimalSlots returns the O_Ai of Algorithm 1: the smallest slot count
// in [1, maxSlots] whose makespan is within kneeTolerance of the best
// achievable with maxSlots. Note the naive resource-time product
// s*Makespan(s) is degenerate here — pipeline speedup is never
// superlinear, so that product is always minimized at s=1; the knee
// rule is what captures "the most efficient slot configuration for
// pipeline execution".
func (p Plan) OptimalSlots(maxSlots int) int {
	var ev Eval
	return p.OptimalSlotsIn(&ev, maxSlots)
}

// OptimalSlotsIn is OptimalSlots drawing its scratch from ev.
func (p Plan) OptimalSlotsIn(ev *Eval, maxSlots int) int {
	opt, _ := p.SizeIn(ev, maxSlots)
	return opt
}

// MaxUsefulSlots returns the smallest slot count achieving the best
// makespan available within maxSlots — the "maximum needed slots" the
// redistribution step of Algorithm 1 tops applications up to.
func (p Plan) MaxUsefulSlots(maxSlots int) int {
	var ev Eval
	return p.MaxUsefulSlotsIn(&ev, maxSlots)
}

// MaxUsefulSlotsIn is MaxUsefulSlots drawing its scratch from ev.
func (p Plan) MaxUsefulSlotsIn(ev *Eval, maxSlots int) int {
	_, maxUse := p.SizeIn(ev, maxSlots)
	return maxUse
}

// SizeIn returns OptimalSlots and MaxUsefulSlots of one plan from one
// sweep: a makespan for maxSlots, then one per count upward from 1
// until a count matches it, so each slot count is evaluated at most
// once.
func (p Plan) SizeIn(ev *Eval, maxSlots int) (opt, maxUse int) {
	k := len(p.StageTimes)
	if k == 0 {
		return 0, 0
	}
	if maxSlots > k {
		maxSlots = k
	}
	if maxSlots < 1 {
		maxSlots = 1
	}
	best := p.MakespanIn(ev, maxSlots)
	limit := sim.Duration(float64(best) * kneeTolerance)
	opt, maxUse = maxSlots, maxSlots
	for s := 1; s < maxSlots; s++ {
		span := p.MakespanIn(ev, s)
		if span <= limit && opt == maxSlots {
			opt = s
		}
		if span <= best {
			// best <= limit, so opt is set by now.
			maxUse = s
			break
		}
	}
	return opt, maxUse
}
