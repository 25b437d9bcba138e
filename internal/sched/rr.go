package sched

import (
	"versaslot/internal/appmodel"
	"versaslot/internal/bundle"
	"versaslot/internal/fabric"
	"versaslot/internal/sim"
)

// RR is Coyote-style round-robin spatio-temporal sharing [22]:
// applications are admitted in queue order with gang allocation (like
// FCFS), but a time quantum rotates oversubscribed applications — on
// expiry a running app is drained off its slots, re-queued at the tail,
// and its remaining stages reloaded on its next turn. Fairer than FCFS,
// at the price of extra PR churn. Single-core control plane.
type RR struct {
	e            *Engine
	class        fabric.SlotClass // the board's base slot class
	queue        []*appmodel.App
	running      []rrApp
	cleanupUntil sim.Time
}

// rrApp is a running application's rotation state.
type rrApp struct {
	a        *appmodel.App
	placedAt sim.Time // start of its current quantum
	draining bool     // quantum expired; leaving the fabric
}

var _ Policy = (*RR)(nil)

// Name implements Policy.
func (r *RR) Name() string { return KindRR.String() }

// Init implements Policy. Like FCFS, RR predates DDR bitstream caching.
func (r *RR) Init(e *Engine) {
	r.e = e
	r.class = e.Board.Platform.Smallest()
	e.DisableBitstreamCache()
}

// AppArrived implements Policy.
func (r *RR) AppArrived(a *appmodel.App) {
	bundle.BuildTasks(a, r.class.Name)
	r.queue = append(reserve(r.queue, r.e), a)
}

// AppFinished implements Policy: the tenant's slots scrub before reuse.
func (r *RR) AppFinished(a *appmodel.App) {
	for i, x := range r.running {
		if x.a == a {
			r.running = append(r.running[:i], r.running[i+1:]...)
			break
		}
	}
	r.cleanupUntil = r.e.Now().Add(r.e.Params.TenantTeardown)
	r.e.K.AtHandler(r.cleanupUntil, r.e.activation())
}

// Schedule implements Policy.
func (r *RR) Schedule() {
	e := r.e
	now := e.Now()
	q := e.Params.RRQuantum

	// Expire quanta: an app past its slice drains if anyone is waiting.
	for i := range r.running {
		ra := &r.running[i]
		if !ra.draining && len(r.queue) > 0 && now.Sub(ra.placedAt) >= q {
			ra.draining = true
		}
	}
	// Drain: evict free slots of draining apps; when fully off the
	// fabric, rotate to the tail of the queue.
	kept := r.running[:0]
	for _, ra := range r.running {
		if ra.draining {
			a := ra.a
			for i := range a.Stages {
				st := &a.Stages[i]
				if slot := st.Slot(); slot != nil && slot.Free() && !st.Loading() {
					e.EvictStage(st)
				}
			}
			if a.HeldSlots() == 0 {
				a.State = appmodel.StateWaiting
				r.queue = append(r.queue, a)
				continue
			}
		}
		kept = append(kept, ra)
	}
	clear(r.running[len(kept):])
	r.running = kept
	// Admit in queue order (RR allows backfill past a too-big head —
	// the rotation provides the fairness FCFS lacks). No admission
	// while a finished tenant's state is still being scrubbed.
	if !e.Frozen() && now >= r.cleanupUntil {
		waiting := r.queue[:0]
		for _, a := range r.queue {
			need := gangNeed(a, e.Params.GangMaxSlots)
			if e.Board.CountEmpty(r.class.Name) < need {
				waiting = append(waiting, a)
				continue
			}
			r.running = append(r.running, rrApp{a: a, placedAt: now})
			a.State = appmodel.StateReady
			placeGang(e, a, r.class.Name, need)
			// Re-activate when this app's quantum will expire.
			e.K.ScheduleHandler(q, e.activation())
		}
		clear(r.queue[len(waiting):])
		r.queue = waiting
	}
	// Pump resident pipelines; draining apps finish in-flight items
	// only. Like FCFS, a gang-scheduled app starts only once its whole
	// pipeline is configured.
	for _, ra := range r.running {
		if ra.draining {
			continue
		}
		reuseForUnplaced(e, ra.a)
		if gangStarted(ra.a) {
			e.Pump(ra.a)
		}
	}
}

// ExtractMigratable implements Policy.
func (r *RR) ExtractMigratable() []*appmodel.App {
	var out, kept []*appmodel.App
	for _, a := range r.queue {
		if !a.Started {
			out = append(out, a)
		} else {
			kept = append(kept, a)
		}
	}
	r.queue = kept
	return out
}

// AcceptMigrated implements Policy.
func (r *RR) AcceptMigrated(apps []*appmodel.App) {
	r.queue = append(r.queue, apps...)
	r.e.Activate()
}
