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

// Stage is one schedulable pipeline step of an app: either a single task
// (Little slot) or a 3-in-1 bundle (Big slot). Schedulers place stages
// into slots, launch their items, and track completion here.
type Stage struct {
	App *App
	// Index is the stage's position in the app's pipeline.
	Index int
	// FirstTask and TaskCount identify the member tasks
	// (Spec.Tasks[FirstTask : FirstTask+TaskCount]).
	FirstTask, TaskCount int
	// Class is the slot-class name the stage's bitstream targets
	// ("Little", "Big", "Large", ...).
	Class string
	// Mode is the bundle execution mode (NoBundle for task stages).
	Mode BundleMode
	// BitstreamName keys the repository entry to load.
	BitstreamName string

	// done counts completed items; slot is where the stage is resident
	// (or being loaded), nil if not placed. Both feed the owning app's
	// held/unplaced counters, so they change only through the methods
	// below (see App.HeldSlots).
	done int
	slot *fabric.Slot

	// inFlight reports whether an item is executing, loading whether a
	// PR for this stage is in flight. Clearing either can make the stage
	// launchable, so they too change only through the methods below,
	// which wake the app (see App.TakeWake).
	inFlight, loading bool
	// LoadedAt records when the stage last became resident (for LRU
	// style decisions and traces).
	LoadedAt sim.Time

	// timeFirst and timeRest are the per-item service times: the first
	// item of a parallel bundle pays the pipeline fill (3*Tmax), the
	// rest the initiation interval (Tmax). Plain stages have
	// timeFirst == timeRest.
	timeFirst, timeRest sim.Duration
}

// ItemTime returns the service time of item idx (0-based).
func (s *Stage) ItemTime(idx int) sim.Duration {
	if idx == 0 {
		return s.timeFirst
	}
	return s.timeRest
}

// SteadyItemTime returns the steady-state initiation interval.
func (s *Stage) SteadyItemTime() sim.Duration { return s.timeRest }

// BatchTime returns the total service time for n items back to back.
func (s *Stage) BatchTime(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return s.timeFirst + sim.Duration(n-1)*s.timeRest
}

// Tasks returns the member TaskSpecs.
func (s *Stage) Tasks() []TaskSpec {
	return s.App.Spec.Tasks[s.FirstTask : s.FirstTask+s.TaskCount]
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
	if s.Index == 0 {
		return true
	}
	prev := s.App.Stages[s.Index-1]
	return prev.done > s.done
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
	return fmt.Sprintf("%s/s%d(%s)", s.App, s.Index, s.Mode)
}

// ImplRes returns the stage's post-implementation resource usage: the
// task's own footprint for plain stages, or eta-scaled member sum for
// bundles (see AppSpec.EtaLUT/EtaFF).
func (s *Stage) ImplRes() fabric.ResVec {
	if s.Mode == NoBundle {
		return s.App.Spec.Tasks[s.FirstTask].Impl
	}
	var sum fabric.ResVec
	for _, t := range s.Tasks() {
		sum = sum.Add(t.Impl)
	}
	sum.LUT = int(float64(sum.LUT)*s.App.Spec.EtaLUT + 0.5)
	sum.FF = int(float64(sum.FF)*s.App.Spec.EtaFF + 0.5)
	return sum
}

// TaskStages builds the per-task (base slot class) execution plan and
// installs it on the app. class names the slot class every stage
// targets; timeScale scales item times (1.0 for slot execution; the
// exclusive baseline passes Spec.MonoFactor).
func TaskStages(a *App, class string, timeScale float64, bitName func(task int) string) []*Stage {
	// One contiguous backing array instead of per-stage allocations:
	// stage plans are built on every arrival (and rebuilt on rebind),
	// so this path is hot at farm scale.
	backing := make([]Stage, len(a.Spec.Tasks))
	stages := make([]*Stage, len(a.Spec.Tasks))
	for i, t := range a.Spec.Tasks {
		d := sim.Duration(float64(t.Time) * timeScale)
		backing[i] = Stage{
			App:           a,
			Index:         i,
			FirstTask:     i,
			TaskCount:     1,
			Class:         class,
			Mode:          NoBundle,
			BitstreamName: bitName(i),
			timeFirst:     d,
			timeRest:      d,
		}
		stages[i] = &backing[i]
	}
	a.setStages(stages)
	return stages
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

// BundleStages builds the 3-in-1 (big-class slot) execution plan:
// tasks are grouped in consecutive triples; modes selects serial or
// parallel per bundle; class names the slot class the bundles target.
// The task count must be divisible by the bundle size (the paper's
// benchmark apps all are).
func BundleStages(a *App, class string, size int, modes []BundleMode, bitName func(bundle int, m BundleMode) string) []*Stage {
	k := len(a.Spec.Tasks)
	if size <= 0 || k%size != 0 {
		panic(fmt.Sprintf("appmodel: %d tasks not divisible by bundle size %d", k, size))
	}
	n := k / size
	if len(modes) != n {
		panic("appmodel: modes length mismatch")
	}
	// Contiguous backing, as in TaskStages.
	backing := make([]Stage, n)
	stages := make([]*Stage, n)
	for b := 0; b < n; b++ {
		st := &backing[b]
		*st = Stage{
			App:           a,
			Index:         b,
			FirstTask:     b * size,
			TaskCount:     size,
			Class:         class,
			Mode:          modes[b],
			BitstreamName: bitName(b, modes[b]),
		}
		st.timeFirst, st.timeRest = BundleTiming(a.Spec, size, b, modes[b])
		stages[b] = st
	}
	a.setStages(stages)
	return stages
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
	for _, st := range a.Stages {
		st.setSlot(nil)
		st.loading = false
		st.inFlight = false
	}
}
