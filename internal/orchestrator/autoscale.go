package orchestrator

import (
	"fmt"

	"versaslot/internal/cluster"
	"versaslot/internal/metrics"
	"versaslot/internal/sim"
)

// AutoscaleSpec parameterizes the deterministic autoscaler: a
// fixed-cadence evaluation loop over windowed load that commissions
// standby pairs under pressure (paying a first-class scale-up
// latency) and drains the least-loaded pair when the fleet runs cold.
type AutoscaleSpec struct {
	// Min and Max bound the online pair count. The farm must be built
	// with Max pairs total (Max - initial online in standby); Min
	// defaults to 1.
	Min int `json:"min,omitempty"`
	Max int `json:"max"`
	// Every is the observation cadence (default 2s of virtual time);
	// Window is the number of observations per scaling decision
	// (default 3).
	Every  sim.Duration `json:"every,omitempty"`
	Window int          `json:"window,omitempty"`
	// UpLatency models pair commissioning (power-up, bitstream
	// pre-stage): a scale-up decision takes effect this long after it
	// is made (default 500ms).
	UpLatency sim.Duration `json:"up_latency,omitempty"`
	// UpLoad and DownLoad are per-online-pair load thresholds (mean
	// unfinished apps per pair over the window): above UpLoad the
	// fleet grows, below DownLoad it shrinks (defaults 6 and 2).
	UpLoad   int `json:"up_load,omitempty"`
	DownLoad int `json:"down_load,omitempty"`
}

// Defaulted returns the spec with zero fields replaced by defaults.
func (s AutoscaleSpec) Defaulted() AutoscaleSpec {
	if s.Min == 0 {
		s.Min = 1
	}
	if s.Every == 0 {
		s.Every = 2 * sim.Second
	}
	if s.Window == 0 {
		s.Window = 3
	}
	if s.UpLatency == 0 {
		s.UpLatency = 500 * sim.Millisecond
	}
	if s.UpLoad == 0 {
		s.UpLoad = 6
	}
	if s.DownLoad == 0 {
		s.DownLoad = 2
	}
	return s
}

// Validate checks a defaulted spec.
func (s AutoscaleSpec) Validate() error {
	if s.Min < 1 {
		return fmt.Errorf("orchestrator: autoscale min %d < 1", s.Min)
	}
	if s.Max < s.Min {
		return fmt.Errorf("orchestrator: autoscale max %d < min %d", s.Max, s.Min)
	}
	if s.Every <= 0 {
		return fmt.Errorf("orchestrator: autoscale cadence %v <= 0", s.Every)
	}
	if s.Window < 1 {
		return fmt.Errorf("orchestrator: autoscale window %d < 1", s.Window)
	}
	if s.UpLatency < 0 {
		return fmt.Errorf("orchestrator: negative scale-up latency %v", s.UpLatency)
	}
	if s.UpLoad <= s.DownLoad {
		return fmt.Errorf("orchestrator: autoscale up_load %d must exceed down_load %d (hysteresis band)", s.UpLoad, s.DownLoad)
	}
	if s.DownLoad < 0 {
		return fmt.Errorf("orchestrator: negative down_load %d", s.DownLoad)
	}
	return nil
}

// ScaleEvent is one autoscaler action, timestamped in virtual time.
type ScaleEvent struct {
	// At is the kernel instant the event took effect.
	At sim.Time `json:"at"`
	// Kind is "scale-up" (a standby pair came online), "drain-start"
	// (a pair stopped accepting work and migrated its queue), or
	// "drain-done" (a drained pair returned to standby).
	Kind string `json:"kind"`
	// Pair is the pair index acted on; Online is the online count
	// after the event.
	Pair   int `json:"pair"`
	Online int `json:"online"`
}

// AutoscaleStats summarizes the autoscaler's activity over a run.
type AutoscaleStats struct {
	// ScaleUps and ScaleDowns count completed operations (a drain
	// counts when it starts; every started drain finishes before the
	// run ends).
	ScaleUps   int `json:"scale_ups"`
	ScaleDowns int `json:"scale_downs"`
	// DrainedApps counts ready-queue applications migrated off
	// draining pairs (cross-pair moves or same-pair requeues).
	DrainedApps int `json:"drained_apps,omitempty"`
	// FinalOnline and PeakOnline are the online pair count at the end
	// of the run and its maximum over the run.
	FinalOnline int `json:"final_online"`
	PeakOnline  int `json:"peak_online"`
	// Events is the full timestamped action log.
	Events []ScaleEvent `json:"events,omitempty"`
}

// autoscaler is the evaluation loop. Every tick runs on the farm
// kernel at sim.PriFarmControl, after every pair has run up to
// the tick, so its reads of farm-wide load are exact and its actions
// are part of the deterministic control-plane schedule.
type autoscaler struct {
	o    *Orchestrator
	spec AutoscaleSpec

	// win accumulates per-pair-load observations (millesimal, so
	// integer sketches keep sub-app resolution) between decisions.
	win       *metrics.Sketch
	ticks     int
	pendingUp int
	// reserved marks standby pairs already claimed by an in-flight
	// scale-up so back-to-back decisions never double-commission.
	reserved []bool

	scaleUps    int
	scaleDowns  int
	drainedApps int
	peak        int
	events      []ScaleEvent

	// tickID is the pending evaluation tick's handle, exposed through
	// Orchestrator.TickHorizon as part of the lookahead horizon.
	tickID sim.EventID
	// tickFn is tick bound once, so re-arming allocates nothing.
	tickFn func()
}

func newAutoscaler(o *Orchestrator, spec AutoscaleSpec) *autoscaler {
	return &autoscaler{
		o:        o,
		spec:     spec,
		win:      metrics.NewSketch(metrics.WindowSketchBits),
		reserved: make([]bool, len(o.f.Pairs)),
		peak:     o.f.OnlineCount(),
	}
}

// arm schedules the next tick.
func (as *autoscaler) arm() {
	if as.tickFn == nil {
		as.tickFn = as.tick
	}
	as.tickID = as.o.f.K.ScheduleP(as.spec.Every, sim.PriFarmControl, as.tickFn)
}

// tick is one observation instant; every spec.Window ticks it becomes
// a decision instant.
func (as *autoscaler) tick() {
	o := as.o
	f := o.f

	// Finish any drain whose pair has gone idle: the pair's ready
	// queue was migrated at drain-start, so it only has to run down
	// its in-flight slots.
	as.finishDrains()

	if o.done() {
		return
	}

	// Observe load per online-or-pending pair, millesimal. Throttle-
	// queued apps count as load: a fleet whose only capacity for a
	// spec sits in standby must still see pressure, or it deadlocks
	// cold.
	total := int64(o.queuedTotal())
	for _, l := range f.LoadView() {
		total += int64(l)
	}
	capacity := int64(f.OnlineCount() + as.pendingUp)
	if capacity < 1 {
		capacity = 1
	}
	as.win.Add(total * 1000 / capacity)
	as.ticks++

	if as.ticks >= as.spec.Window {
		as.decide()
		as.ticks = 0
		as.win.Reset()
	}
	as.arm()
}

// finishDrains returns every idle draining pair to standby.
func (as *autoscaler) finishDrains() {
	f := as.o.f
	if f.DrainingCount() == 0 {
		return
	}
	loads := f.LoadView()
	for i := range f.Pairs {
		if f.PairStateOf(i) == cluster.PairDraining && loads[i] == 0 {
			if err := f.FinishDrain(i); err != nil {
				panic(err)
			}
			as.event("drain-done", i)
		}
	}
}

// decide compares the windowed mean against the hysteresis band and
// commissions or drains at most one pair.
func (as *autoscaler) decide() {
	f := as.o.f
	mean := as.win.Mean()
	online := f.OnlineCount()

	if mean > float64(as.spec.UpLoad)*1000 {
		if online+as.pendingUp >= as.spec.Max {
			return
		}
		// Lowest-index unreserved standby pair.
		for i := range f.Pairs {
			if f.PairStateOf(i) == cluster.PairStandby && !as.reserved[i] {
				as.reserved[i] = true
				as.pendingUp++
				pair := i
				f.K.ScheduleP(as.spec.UpLatency, sim.PriFarmControl, func() {
					as.activate(pair)
				})
				return
			}
		}
		return
	}

	if mean < float64(as.spec.DownLoad)*1000 {
		// One drain at a time, never below Min, never while a
		// scale-up is in flight (the fleet is visibly oscillating —
		// let the band settle), never the last online pair.
		if as.pendingUp > 0 || f.DrainingCount() > 0 || online <= as.spec.Min || online <= 1 {
			return
		}
		victim, loads := -1, f.LoadView()
		for i := range f.Pairs {
			if f.PairStateOf(i) != cluster.PairOnline {
				continue
			}
			// Min load; ties to the highest index, so the stable
			// low-index pairs stay online.
			if victim < 0 || loads[i] <= loads[victim] {
				victim = i
			}
		}
		if victim < 0 {
			return
		}
		moved, err := f.StartDrain(victim)
		if err != nil {
			panic(err)
		}
		as.drainedApps += moved
		as.scaleDowns++
		as.event("drain-start", victim)
	}
}

// activate commissions a reserved standby pair (the deferred half of
// a scale-up decision).
func (as *autoscaler) activate(pair int) {
	f := as.o.f
	as.pendingUp--
	as.reserved[pair] = false
	if err := f.ActivatePair(pair); err != nil {
		panic(err)
	}
	as.scaleUps++
	if n := f.OnlineCount(); n > as.peak {
		as.peak = n
	}
	as.event("scale-up", pair)
	// Newly commissioned capacity may unblock capacity-throttled
	// queues immediately.
	if as.o.queuedTotal() > 0 {
		as.o.armPump()
	}
}

// event appends one timestamped action to the log.
func (as *autoscaler) event(kind string, pair int) {
	as.events = append(as.events, ScaleEvent{
		At:     as.o.f.K.Now(),
		Kind:   kind,
		Pair:   pair,
		Online: as.o.f.OnlineCount(),
	})
}

// stats snapshots the run's autoscaling summary.
func (as *autoscaler) stats() *AutoscaleStats {
	return &AutoscaleStats{
		ScaleUps:    as.scaleUps,
		ScaleDowns:  as.scaleDowns,
		DrainedApps: as.drainedApps,
		FinalOnline: as.o.f.OnlineCount(),
		PeakOnline:  as.peak,
		Events:      as.events,
	}
}
