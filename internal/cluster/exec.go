package cluster

import "versaslot/internal/sim"

// Farm execution: conservative lookahead on one goroutine.
//
// Every pair runs on its own kernel (Cluster.K). The farm kernel f.K
// holds exactly the control plane: arrival dispatch (PriArrival),
// rebalance ticks, rack-link transfers, orchestrator pump and
// autoscale ticks and fault-injector chains (PriFarmControl). Pair
// events never schedule onto f.K (completions only bump the farm's
// per-pair counters), so pairs interact only at control instants.
//
// The next control instant T is therefore the earliest moment anything
// outside a pair can reach it: a control event at T may inject into any
// pair, strike any slot or deliver a migration. Until T every pair is
// free to run on its own. Run loops over the control instants:
//
//  1. run every busy pair whose horizon lies before T up to T (RunTo);
//  2. drain the control events at exactly T on f.K;
//  3. the pairs those events touched are busy again, with horizon T.
//
// A pair's horizon (Cluster.next) is a lower bound on its earliest
// pending event. The busy list holds the pairs that may have one: a
// pair leaves it when RunTo finds its kernel empty and rejoins when a
// control event touches it (TouchPair), since only a control event can
// give an idle pair work, and only at or after its own instant. A fleet
// whose arrivals reach a few pairs therefore scans a few pairs per
// instant, and f.minNext, a lower bound over the busy horizons, lets an
// instant no pair has work before skip the scan altogether.
//
// Determinism: control events at T execute on f.K in (time, priority,
// sequence) order; every pair event strictly before T has run by then;
// pair events at exactly T run under the next bound, after the control
// events, where their priority class puts them on a shared queue.
// Between control instants pairs write nothing another pair reads
// except per-pair counters, so the order in which the pairs of one
// instant run cannot change a Result: Step, which runs pair events in
// time order across pairs, ends in the same Summary as Run
// (TestFarmStepMatchesRun). Trace lines, though, come out grouped per
// pair between control instants.

// run executes every pending event, control instant by control
// instant, running the pairs ahead to each instant first.
func (f *Farm) run() {
	for {
		t, ok := f.K.NextAt()
		if !ok {
			t = sim.MaxTime
		}
		if f.minNext < t {
			f.runPairsTo(t)
		}
		if !ok {
			return
		}
		for {
			f.K.Step()
			if next, ok := f.K.NextAt(); !ok || next > t {
				break
			}
		}
	}
}

// runPairsTo runs every pair event strictly before t, pair by pair,
// drops the pairs left without events from the busy list and
// recomputes minNext.
func (f *Farm) runPairsTo(t sim.Time) {
	min, busy := sim.MaxTime, f.busy[:0]
	for _, p := range f.busy {
		if p.next < t {
			p.next = p.K.RunTo(t)
		}
		if p.next == sim.MaxTime {
			p.busy = false
			continue
		}
		busy = append(busy, p)
		if p.next < min {
			min = p.next
		}
	}
	f.busy, f.minNext = busy, min
}

// Step executes exactly one event in the farm's order and reports
// whether there was one: the earliest pair event strictly before the
// next control instant (ties to the lowest pair index), or else the
// next control event. Once nothing is pending it aligns the clocks as
// Run does and returns false. Run reaches the same Summary in batches;
// Step is for callers that inspect the farm between events.
func (f *Farm) Step() bool {
	t, ok := f.K.NextAt()
	if !ok {
		t = sim.MaxTime
	}
	var first *Cluster
	for _, p := range f.busy {
		if p.next >= t {
			continue
		}
		p.next = sim.MaxTime
		if at, ok := p.K.NextAt(); ok {
			p.next = at
		}
		if p.next < t && (first == nil || p.next < first.next || p.next == first.next && p.index < first.index) {
			first = p
		}
	}
	switch {
	case first != nil:
		first.K.Step()
	case ok:
		f.K.Step()
	default:
		f.alignClocks()
		return false
	}
	return true
}

// alignClocks advances the farm's clock and every pair's to the
// latest of them once nothing is pending, so residency and
// availability integrals flush against one end time.
func (f *Farm) alignClocks() {
	end := f.K.Now()
	for _, p := range f.Pairs {
		if t := p.K.Now(); t > end {
			end = t
		}
	}
	f.K.AdvanceTo(end)
	for _, p := range f.Pairs {
		p.K.AdvanceTo(end)
	}
}

// TouchPair stamps pair i's clock to the current control instant,
// lowers its horizon to it and lists it busy. Every control-plane
// action that reaches into a pair — dispatch injection, migration
// delivery or requeue, fault strikes — must touch the pair first: the
// pair's clock lags at its last executed event until then, an injection
// against the stale clock would land in the pair's past, and an idle
// pair left off the busy list would never run what it was given.
func (f *Farm) TouchPair(i int) {
	p, now := f.Pairs[i], f.K.Now()
	p.K.AdvanceTo(now)
	p.next = min(p.next, now)
	f.minNext = min(f.minNext, now)
	if !p.busy {
		p.busy = true
		f.busy = append(f.busy, p)
	}
}
