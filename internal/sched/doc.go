// Package sched contains the execution engine shared by every policy
// (slots, PCAP, CPU cores, launches, metrics) and the six scheduling
// policies the paper evaluates: the exclusive temporal-multiplexing
// Baseline, FCFS, RR (Coyote-style), Nimblock, VersaSlot Only.Little
// and VersaSlot Big.Little (Algorithms 1 and 2).
//
// Policies are pluggable: each Registration names a policy, declares
// the board floorplan and control-plane model it runs on, and
// supplies a fresh-instance factory. Third-party schedulers register
// with Kind = KindExternal and are selected by name through the
// versaslot facade, exactly like the built-ins.
//
// Scheduling passes run at every item boundary, so each must be cheap:
// every policy's Schedule is allocation-free and linear in the number
// of applications (TestSchedulePassZeroAlloc pins the former). Passes
// read occupancy through O(1) counters rather than rescanning slots
// and stages:
//
//   - fabric.Board.CountEmpty, kept by the slot transitions (see
//     package fabric).
//   - appmodel.App.HeldSlots and UnplacedStages, kept by the stage
//     mutators. Only these change a stage's slot or completed-item
//     count: Engine.RequestPR and PlaceResident attach a slot
//     (Stage.Attach); Stage.Evict and appmodel.ResetStages clear it;
//     an item completion counts (Stage.CompleteItem); and a crash
//     restart without a checkpoint rewinds progress (Stage.SetDone).
//     Installing a plan (appmodel.App.Install, through bundle.Build,
//     BuildTasks or BuildMonolithic) resets them: a fresh plan holds
//     no slot and has finished no item. The plan's fixed part is a
//     shared appmodel.StageDef, so an install allocates only the
//     app's []Stage run state, and policies address stages in place
//     (&a.Stages[i]); go vet reports any copy of a Stage.
//
// Within a pass, admission, top-up and Algorithm 1 change allocations
// but never placements, so the free-slot count they share is computed
// once and adjusted by each touched app's shortfall delta
// (TestHoistedFreeExact checks it against a rescan), and
// TestCounterAudit in package core recounts every counter after every
// kernel event, faults included.
//
// Launch probes are skipped the same way. Engine.Pump scans an app's
// stages only when the app's wake flag is set (appmodel.App.TakeWake),
// and clears it. Every stage writer that can make a stage launchable
// sets the flag: attaching or detaching a slot (Attach, Evict,
// ResetStages), a PR completing (SetLoading(false), in prDone and
// PlaceResident), an item completing (CompleteItem), an item or load
// torn down by a fault (SetInFlight(false), ResetStages) and progress
// rewound (SetDone). A launch disables only its own stage, so after a
// full scan no stage of the app is launchable until one of those
// writers runs. Invariant: an active app whose flag is clear has no
// stage that passes Stage.Launchable, LaunchItem's predicate;
// TestCounterAudit checks it after every kernel event.
//
// Arrivals are cheap too. Algorithm 1 sizes each arriving app's task
// and bundle pipelines (pipeline.Plan.SizeIn); the answer depends only
// on the spec, slot class, plan kind, batch, load time and slot bound,
// which recur across apps and runs, so sizePlan sweeps each input once
// per process and serves it from a shared table after that.
package sched
