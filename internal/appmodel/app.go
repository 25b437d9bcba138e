package appmodel

import (
	"fmt"

	"versaslot/internal/fabric"
	"versaslot/internal/sim"
)

// TaskSpec describes one task of an application, as produced by the
// offline partitioning flow.
type TaskSpec struct {
	// Name identifies the task (e.g. "DCT").
	Name string
	// Time is the per-batch-item latency when the task executes in a
	// Little slot.
	Time sim.Duration
	// Impl is the post-implementation resource usage in a Little slot.
	Impl fabric.ResVec
	// Synth is the synthesis-time estimate (typically much higher;
	// Fig. 7 right shows DCT dropping from 0.98 to 0.57).
	Synth fabric.ResVec
}

// AppSpec is the static description of an application.
type AppSpec struct {
	// Name identifies the application (e.g. "IC").
	Name string
	// Tasks is the pipeline, in dependency order.
	Tasks []TaskSpec
	// EtaLUT and EtaFF are the cross-task resource-sharing factors of a
	// 3-in-1 bundle implementation: the bundle's usage is eta * (sum of
	// member usage). Calibrated per app to the implementation results
	// the paper reports in Fig. 7.
	EtaLUT, EtaFF float64
	// MonoFactor scales task times for the monolithic full-fabric
	// implementation used by the exclusive baseline (< 1: the
	// unpartitioned design avoids inter-slot buffering).
	MonoFactor float64
	// ItemBytes is the data volume of one batch item's buffers; it
	// prices DMA transfers during live migration.
	ItemBytes int64
}

// TaskCount returns the number of tasks in the pipeline.
func (s *AppSpec) TaskCount() int { return len(s.Tasks) }

// TotalItemTime returns the summed per-item latency of all tasks.
func (s *AppSpec) TotalItemTime() sim.Duration {
	var sum sim.Duration
	for _, t := range s.Tasks {
		sum += t.Time
	}
	return sum
}

// BottleneckTime returns the largest per-item task latency.
func (s *AppSpec) BottleneckTime() sim.Duration {
	var max sim.Duration
	for _, t := range s.Tasks {
		if t.Time > max {
			max = t.Time
		}
	}
	return max
}

// State is an application's lifecycle.
type State int

const (
	// StatePending means the app has not yet arrived.
	StatePending State = iota
	// StateWaiting means the app is in the candidate list awaiting slots.
	StateWaiting
	// StateReady means slots are allocated and tasks are in the ready list.
	StateReady
	// StateRunning means at least one stage has started executing.
	StateRunning
	// StateMigrating means the app is in flight between boards.
	StateMigrating
	// StateFinished means every batch item has passed every task.
	StateFinished
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateWaiting:
		return "waiting"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateMigrating:
		return "migrating"
	case StateFinished:
		return "finished"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// App is one arrived instance of an AppSpec.
type App struct {
	// ID is unique within a simulation run.
	ID int
	// Spec is the application's static description.
	Spec *AppSpec
	// Batch is the number of items flowing through the pipeline.
	Batch int
	// Arrival is when the app entered the system.
	Arrival sim.Time
	// Finish is when the last item left the last stage (valid when
	// State == StateFinished).
	Finish sim.Time

	// State is the current lifecycle state; schedulers own transitions.
	State State

	// Stages is the execution plan: per-task stages for Little slots or
	// bundled stages for Big slots. Installed by a scheduler at binding
	// time (Install) and may be reinstalled on rebinding (before
	// execution starts). Address stages in place: &a.Stages[i].
	Stages []Stage

	// stageBuf is zeroed memory the first Install takes its stages
	// from (see UseStageBuffer); nil once taken.
	stageBuf []Stage

	// held counts stages with a slot; unplaced counts unfinished stages
	// without one; finished counts stages that completed the batch, and
	// heldFinished those of them that still hold a slot.
	// Stage.setSlot/setDone keep all four exact and Install resets
	// them, so schedulers read them in O(1) each pass.
	held, unplaced         int
	finished, heldFinished int

	// wake is set by every stage writer that can make a stage
	// launchable (see TakeWake).
	wake bool

	// Started reports whether any stage has executed an item. Rebinding
	// is only legal before this (Algorithm 1 unbinds only apps that
	// have not started).
	Started bool
	// FirstStart is when the first item began executing (valid once
	// Started): Response = queueing delay (FirstStart-Arrival) plus
	// service (Finish-FirstStart).
	FirstStart sim.Time

	// Migrated counts cross-board migrations of this app.
	Migrated int
}

// NewApp returns an app in StatePending.
func NewApp(id int, spec *AppSpec, batch int, arrival sim.Time) *App {
	a := new(App)
	a.Init(id, spec, batch, arrival)
	return a
}

// Init makes a, in place, an app in StatePending, so callers can
// allocate many apps as one block.
func (a *App) Init(id int, spec *AppSpec, batch int, arrival sim.Time) {
	if batch <= 0 {
		panic("appmodel: batch must be positive")
	}
	*a = App{ID: id, Spec: spec, Batch: batch, Arrival: arrival}
}

// QueueDelay returns how long the app waited before its first item
// executed; it panics if the app never started.
func (a *App) QueueDelay() sim.Duration {
	if !a.Started {
		panic(fmt.Sprintf("appmodel: app %d never started", a.ID))
	}
	return a.FirstStart.Sub(a.Arrival)
}

// ResponseTime returns Finish-Arrival; it panics if the app is not finished.
func (a *App) ResponseTime() sim.Duration {
	if a.State != StateFinished {
		panic(fmt.Sprintf("appmodel: app %d not finished", a.ID))
	}
	return a.Finish.Sub(a.Arrival)
}

// HeldSlots returns the number of stages that occupy a slot (resident
// or loading).
func (a *App) HeldSlots() int { return a.held }

// UnplacedStages returns the number of unfinished stages without a
// slot.
func (a *App) UnplacedStages() int { return a.unplaced }

// HeldFinishedStages returns the number of finished stages that still
// hold a slot: the ones a scheduler can recycle.
func (a *App) HeldFinishedStages() int { return a.heldFinished }

// Woken reports whether a stage may have become launchable since the
// last TakeWake.
func (a *App) Woken() bool { return a.wake }

// TakeWake reports whether a stage may have become launchable since
// the last call, and clears the flag. Every writer that can make a
// stage launchable sets it: a slot attached or detached (setSlot, so
// Attach, Evict, ResetStages), a PR or item ending (SetLoading(false),
// SetInFlight(false), CompleteItem) and progress rewound (SetDone).
// A caller that then scans every stage and launches what it can leaves
// no stage launchable — a launch disables only its own stage — so a
// clear flag lets the next scan be skipped.
func (a *App) TakeWake() bool {
	w := a.wake
	a.wake = false
	return w
}

// UseStageBuffer hands the app zeroed, otherwise unused memory for
// its first Install, so a caller that builds many apps can allocate
// their stages as one block (see workload.Sequence.Instantiate). It
// must be called before the first Install.
func (a *App) UseStageBuffer(buf []Stage) { a.stageBuf = buf }

// Install binds a fresh run state to every stage of plan and makes it
// the app's execution plan. The definitions are shared, not copied, so
// the only memory is the run-state slice: the stage buffer, on a first
// Install that fits in it, and one allocation otherwise. A re-install
// always gets fresh memory, since slot records and queued events may
// still point at the old stages. No stage of a fresh plan holds a slot
// or has finished an item (Batch is positive), so every stage is
// unplaced.
func (a *App) Install(plan []StageDef) {
	var stages []Stage
	if cap(a.stageBuf) >= len(plan) {
		stages = a.stageBuf[:len(plan)]
	} else {
		stages = make([]Stage, len(plan))
	}
	a.stageBuf = nil
	for i := range stages {
		stages[i].App = a
		stages[i].StageDef = &plan[i]
	}
	a.Stages = stages
	a.wake = true
	a.held, a.unplaced, a.finished, a.heldFinished = 0, len(plan), 0, 0
}

// Done reports whether every stage has completed every item.
func (a *App) Done() bool {
	return len(a.Stages) > 0 && a.finished == len(a.Stages)
}

// RemainingItems returns the total number of item executions still owed
// across all stages.
func (a *App) RemainingItems() int {
	rem := 0
	for i := range a.Stages {
		rem += a.Batch - a.Stages[i].done
	}
	return rem
}

// UnfinishedStages returns the number of stages with work left.
func (a *App) UnfinishedStages() int { return len(a.Stages) - a.finished }

// String identifies the app in traces.
func (a *App) String() string {
	return fmt.Sprintf("%s#%d(b=%d)", a.Spec.Name, a.ID, a.Batch)
}
