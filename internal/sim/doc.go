// Package sim provides the deterministic discrete-event simulation
// kernel, virtual clock, random source, and server primitive that
// every VersaSlot hardware model (PCAP, CPU cores, slots, links) is
// built on.
//
// # Determinism
//
// A simulation is single-goroutine: every state change happens inside
// an event callback, so a run is bit-for-bit reproducible for a given
// seed and input. Events fire in the strict total order (time,
// priority, sequence); sequence numbers are unique per kernel, so the
// pop order is independent of the event queue's internal arrangement.
// The RNG is a pinned xoshiro256** implementation — sequences do not
// drift across Go releases.
//
// # Event queue
//
// The queue is a one-entry next-event register in front of an inline
// 4-ary min-heap. When the register is set, its event sorts before
// every heap entry. A Schedule that beats the current minimum — in a
// VersaSlot run most do: a launch's completion, the pass after it —
// takes the register in O(1), pushing any displaced occupant into the
// heap; Step pops the register first, and the heap only when the
// register is empty. Heap entries carry their (time, priority,
// sequence) key inline next to the arena index, 24 bytes each, so
// sifting reads only the heap slice. Cancels are lazy: a canceled
// event stays queued until it reaches the head, where Step or a peek
// (RunTo, AdvanceTo, NextAt) discards it. Because the order is total,
// none of this changes which event fires next: FuzzKernelDiff and
// TestKernelDifferentialOrder replay traces of schedules, cancels and
// every run primitive against a container/heap reference.
//
// # Handlers
//
// An event's action, and a server job's completion, is a Handler: one
// Fire method. Hot-path owners pass a pointer to a typed view of their
// own state (the scheduling engine declares `type launchEvent slotRT`
// with a Fire method that runs the launch); a pointer converts to an
// interface without allocating, so scheduling such an event costs
// nothing, however many sources a run has. A Server schedules its own
// completion the same way, and a job's optional Starter observes its
// queueing wait. Plain func() callbacks go through the Func adapter
// (At, Schedule, SubmitFunc), so the kernel has one dispatch path.
//
// # Servers
//
// A Server is a non-preemptive FIFO. Its waiting jobs form a list
// linked through each Job's next field, so queueing needs no slice.
// SubmitFunc and SubmitPooled draw jobs from a free list threaded the
// same way, which the kernel holds for all of its servers and refills
// four jobs at a time; a server only runs on its own kernel, so the
// list has one writer. A completed or skipped pooled job goes back on
// the list. Per-class counters live in a small table allocated at
// capacity four on first use; Stats builds its maps from it. FuzzServerDiff
// replays pooled and caller-owned submits, cancels and steps over
// three servers on one kernel against a slice-backed reference.
//
// # Construction in place
//
// Kernel.Init and Server.Init make a zero value usable where its owner
// keeps it, so a farm's pairs each hold their kernel inline and an
// engine holds its servers inline; NewKernel and NewServer are new
// plus Init. A kernel holds its RNG by value. Neither may be copied
// once initialized: a server's completion event is the server itself,
// and a copy would split the queue from the events that drain it. Both
// carry a noCopy guard, so go vet's copylocks check flags a copy.
//
// # EventID generations
//
// Schedule returns a generation-counted EventID handle rather than a
// pointer. The kernel stores events in an arena whose slots are
// recycled through a LIFO free list threaded through the free slots
// themselves (a free slot's time field holds the next free index), so
// the list needs no storage; the generation counter makes a stale
// handle (one whose event already fired or was canceled) harmless —
// Cancel and EventTime on it are no-ops, never a hit on whatever
// event now occupies the recycled slot. The arena and the heap are
// allocated at a capacity of 16 on first use, which covers almost
// every paper-sweep run, so a fresh kernel reaches its working size
// without growing. Steady-state Schedule/Step performs zero heap
// allocations.
package sim
