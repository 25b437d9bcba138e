package appmodel

import (
	"fmt"

	"versaslot/internal/fabric"
	"versaslot/internal/sim"
)

// BundleMode selects how a 3-in-1 bundle executes internally (Fig. 3).
type BundleMode int

const (
	// NoBundle marks a plain single-task stage.
	NoBundle BundleMode = iota
	// BundleParallel pipelines the three member tasks inside the Big
	// slot: initiation interval = Tmax, two-stage fill latency, total
	// batch time Tmax*(N+2).
	BundleParallel
	// BundleSerial runs the three members back to back per item:
	// per-item time T1+T2+T3, total (T1+T2+T3)*N.
	BundleSerial
)

func (m BundleMode) String() string {
	switch m {
	case NoBundle:
		return "task"
	case BundleParallel:
		return "par"
	case BundleSerial:
		return "ser"
	default:
		return fmt.Sprintf("BundleMode(%d)", int(m))
	}
}

// StageDef is the fixed part of one pipeline step: which tasks it
// runs, the slot class and bitstream it loads, its item times and its
// resource usage. All of it depends only on the spec, the slot class
// and (for bundles) the batch, so one read-only plan ([]StageDef)
// serves every app with the same key. The fields are unexported and
// read through accessors, so no app's stage can write into a plan
// another app shares. TaskPlan and BundlePlan build plans; App.Install
// binds one to an app.
type StageDef struct {
	index, firstTask, taskCount int
	class                       string
	mode                        BundleMode
	bitName                     string
	// timeFirst and timeRest are the per-item service times: the first
	// item of a parallel bundle pays the pipeline fill (3*Tmax), the
	// rest the initiation interval (Tmax). Plain stages have
	// timeFirst == timeRest.
	timeFirst, timeRest sim.Duration
	impl                fabric.ResVec
}

// Index returns the stage's position in the app's pipeline.
func (d *StageDef) Index() int { return d.index }

// FirstTask returns the index of the first member task; the members
// are Spec.Tasks[FirstTask : FirstTask+TaskCount].
func (d *StageDef) FirstTask() int { return d.firstTask }

// TaskCount returns the number of member tasks.
func (d *StageDef) TaskCount() int { return d.taskCount }

// Class returns the slot-class name the stage's bitstream targets
// ("Little", "Big", "Large", ...).
func (d *StageDef) Class() string { return d.class }

// Mode returns the bundle execution mode (NoBundle for task stages).
func (d *StageDef) Mode() BundleMode { return d.mode }

// BitstreamName returns the repository key of the stage's bitstream.
func (d *StageDef) BitstreamName() string { return d.bitName }

// ImplRes returns the stage's post-implementation resource usage: the
// task's own footprint for plain stages, or the eta-scaled member sum
// for bundles (see AppSpec.EtaLUT/EtaFF).
func (d *StageDef) ImplRes() fabric.ResVec { return d.impl }

// ItemTime returns the service time of item idx (0-based).
func (d *StageDef) ItemTime(idx int) sim.Duration {
	if idx == 0 {
		return d.timeFirst
	}
	return d.timeRest
}

// SteadyItemTime returns the steady-state initiation interval.
func (d *StageDef) SteadyItemTime() sim.Duration { return d.timeRest }

// BatchTime returns the total service time for n items back to back.
func (d *StageDef) BatchTime(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return d.timeFirst + sim.Duration(n-1)*d.timeRest
}

// noCopy makes go vet's copylocks check report any copy of a Stage:
// the app's counters and the slots refer to each stage in place.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Stage is one schedulable pipeline step of an app: either a single task
// (Little slot) or a 3-in-1 bundle (Big slot). It pairs the shared
// definition with this app's run state. Schedulers place stages into
// slots, launch their items, and track completion here, always through
// a pointer into App.Stages (&a.Stages[i]), never a copy.
type Stage struct {
	noCopy noCopy
	App    *App
	*StageDef

	// slot is where the stage is resident (or being loaded), nil if not
	// placed; done counts completed items. Both feed the owning app's
	// held/unplaced counters, so they change only through the methods
	// below (see App.HeldSlots).
	slot *fabric.Slot
	done int

	// inFlight reports whether an item is executing, loading whether a
	// PR for this stage is in flight. Clearing either can make the stage
	// launchable, so they too change only through the methods below,
	// which wake the app (see App.TakeWake).
	inFlight, loading bool
}

// Done returns the number of completed items.
func (s *Stage) Done() int { return s.done }

// Slot returns where the stage is resident (or being loaded), or nil
// if it is not placed.
func (s *Stage) Slot() *fabric.Slot { return s.slot }

// InFlight reports whether an item is currently executing.
func (s *Stage) InFlight() bool { return s.inFlight }

// Loading reports whether a PR for this stage is in flight.
func (s *Stage) Loading() bool { return s.loading }

// Finished reports whether the stage has completed the app's batch.
func (s *Stage) Finished() bool { return s.done >= s.App.Batch }

// Resident reports whether the stage is loaded in a slot and not mid-PR.
func (s *Stage) Resident() bool { return s.slot != nil && !s.loading }

// Launchable reports whether the stage's next item can launch now: the
// stage is resident in a loaded, idle slot, no item of it is executing,
// and the item's input is ready.
func (s *Stage) Launchable() bool {
	return s.Resident() && s.slot.State() == fabric.SlotLoaded && s.NextItemReady()
}

// Attach records that the stage occupies slot (a PR into it began, or
// it was placed resident). The caller transitions the slot itself.
func (s *Stage) Attach(slot *fabric.Slot) { s.setSlot(slot) }

// SetInFlight records that an item started (true) or was torn down
// without completing (false).
func (s *Stage) SetInFlight(v bool) {
	s.inFlight = v
	if !v {
		s.App.wake = true
	}
}

// SetLoading records that a PR for the stage started (true) or ended
// (false).
func (s *Stage) SetLoading(v bool) {
	s.loading = v
	if !v {
		s.App.wake = true
	}
}

// CompleteItem ends the executing item and counts it finished.
func (s *Stage) CompleteItem() {
	s.inFlight = false
	s.setDone(s.done + 1)
	s.App.wake = true
}

// SetDone overwrites the completed-item count: a crash restart without
// a checkpoint rewinds it to zero.
func (s *Stage) SetDone(n int) {
	s.setDone(n)
	s.App.wake = true
}

// setSlot and setDone are the only writers of slot and done; they keep
// the app's held, unplaced, finished and heldFinished counters exact.
func (s *Stage) setDone(n int) {
	was := s.Finished()
	s.done = n
	if was == s.Finished() {
		return
	}
	d := 1
	if was {
		d = -1
	}
	s.App.finished += d
	if s.slot == nil {
		s.App.unplaced -= d
	} else {
		s.App.heldFinished += d
	}
}

func (s *Stage) setSlot(slot *fabric.Slot) {
	if (s.slot == nil) != (slot == nil) {
		d := 1
		if slot == nil {
			d = -1
		}
		s.App.held += d
		if s.Finished() {
			s.App.heldFinished += d
		} else {
			s.App.unplaced -= d
		}
	}
	s.slot = slot
	s.App.wake = true
}

// NextItemReady reports whether the next item's input is available:
// item Done of stage i needs item Done completed by stage i-1.
func (s *Stage) NextItemReady() bool {
	if s.Finished() || s.inFlight {
		return false
	}
	if s.index == 0 {
		return true
	}
	return s.App.Stages[s.index-1].done > s.done
}

// Evict detaches the stage from its slot (after preemption or when the
// stage finished and the slot is reused). The caller transitions the
// slot itself.
func (s *Stage) Evict() {
	s.setSlot(nil)
	s.loading = false
}

// String identifies the stage in traces.
func (s *Stage) String() string {
	return fmt.Sprintf("%s/s%d(%s)", s.App, s.index, s.mode)
}

// TaskPlan builds the per-task (base slot class) execution plan of
// spec. class names the slot class every stage targets; timeScale
// scales item times (1.0 for slot execution; the exclusive baseline
// passes Spec.MonoFactor).
func TaskPlan(spec *AppSpec, class string, timeScale float64, bitName func(task int) string) []StageDef {
	plan := make([]StageDef, len(spec.Tasks))
	for i, t := range spec.Tasks {
		d := sim.Duration(float64(t.Time) * timeScale)
		plan[i] = StageDef{
			index:     i,
			firstTask: i,
			taskCount: 1,
			class:     class,
			mode:      NoBundle,
			bitName:   bitName(i),
			timeFirst: d,
			timeRest:  d,
			impl:      t.Impl,
		}
	}
	return plan
}

// Bundle timing factors: tasks fused into one 3-in-1 circuit stream
// through on-chip FIFOs instead of the per-item DDR round-trips that
// inter-slot pipelines pay, so the effective initiation interval of a
// parallel bundle (and, more weakly, the member-to-member hand-off of
// a serial bundle) undercuts the raw task latencies. Calibrated so the
// Big.Little advantage matches Figs. 5 and 8.
const (
	BundleParallelFactor = 0.58
	BundleSerialFactor   = 0.80
)

// BundlePlan builds the 3-in-1 (big-class slot) execution plan of
// spec: tasks are grouped in consecutive triples; modes selects serial
// or parallel per bundle; class names the slot class the bundles
// target. The task count must be divisible by the bundle size (the
// paper's benchmark apps all are).
func BundlePlan(spec *AppSpec, class string, size int, modes []BundleMode, bitName func(bundle int, m BundleMode) string) []StageDef {
	k := len(spec.Tasks)
	if size <= 0 || k%size != 0 {
		panic(fmt.Sprintf("appmodel: %d tasks not divisible by bundle size %d", k, size))
	}
	n := k / size
	if len(modes) != n {
		panic("appmodel: modes length mismatch")
	}
	plan := make([]StageDef, n)
	for b := range plan {
		d := &plan[b]
		*d = StageDef{
			index:     b,
			firstTask: b * size,
			taskCount: size,
			class:     class,
			mode:      modes[b],
			bitName:   bitName(b, modes[b]),
		}
		d.timeFirst, d.timeRest = BundleTiming(spec, size, b, modes[b])
		for _, t := range spec.Tasks[b*size : (b+1)*size] {
			d.impl = d.impl.Add(t.Impl)
		}
		d.impl.LUT = int(float64(d.impl.LUT)*spec.EtaLUT + 0.5)
		d.impl.FF = int(float64(d.impl.FF)*spec.EtaFF + 0.5)
	}
	return plan
}

// BundleTiming returns the first-item and steady-state per-item service
// times of bundle b (of the given size) of spec under mode.
func BundleTiming(spec *AppSpec, size, b int, mode BundleMode) (first, rest sim.Duration) {
	members := spec.Tasks[b*size : (b+1)*size]
	var sum, max sim.Duration
	for _, t := range members {
		sum += t.Time
		if t.Time > max {
			max = t.Time
		}
	}
	switch mode {
	case BundleSerial:
		eff := sim.Duration(float64(sum) * BundleSerialFactor)
		return eff, eff
	case BundleParallel:
		// The first item pays the fill of the internal pipeline:
		// (size-1) extra initiation intervals.
		ii := sim.Duration(float64(max) * BundleParallelFactor)
		return sim.Duration(size) * ii, ii
	default:
		panic("appmodel: bundle timing needs a bundle mode")
	}
}

// ResetStages clears runtime execution state so the plan can be rebuilt
// (rebinding) or resumed after migration. Completed item counts are
// preserved — live migration does not redo work.
func ResetStages(a *App) {
	for i := range a.Stages {
		st := &a.Stages[i]
		st.setSlot(nil)
		st.loading = false
		st.inFlight = false
	}
}
