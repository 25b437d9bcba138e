// Package cluster orchestrates multiple FPGA boards at two scales.
//
// A Cluster is the paper's switching pair (Section III-D, Figs. 4 and
// 8): it hosts the applications its farm routes to it on the active
// board, evaluates D_switch on the paper's cadence, drives the
// Schmitt-trigger switching loop, pre-warms the spare board inside the
// buffer zone, and performs live migration over the Aurora interlink.
// A migrated app lands on whichever board is active when it arrives:
// a delivery can itself trigger the next switch. A pair builds each
// board the first time something needs it: the active board when work
// first reaches the pair (a dispatch injection, a migration delivery,
// fault attach or a caller of Engine), the spare on a prewarm, a
// switch or a caller of Engine. Until then a board merges as an idle
// board.
//
// A Cluster only runs inside a Farm, which owns it: the facade's
// cluster topology is a farm of exactly one pair, so every pair runs
// through the same arrival, fault and merge path.
//
// A pair is fixed when its Config names a policy: one board of any
// registered policy on any resolved platform (the virtual baseline
// template and inline or custom-mix platforms included), with no
// spare, no D_switch trigger and no link. A farm of a fixed pair has
// that pair alone and no dispatcher; it hands the pair its apps
// straight into the engine, and the pair's kernel runs its fault
// chains. The facade's single topology is such a farm, so
// Cluster.build is the one place any board is made.
//
// A Farm is K switching pairs behind a pluggable arrival dispatcher
// (least-loaded, round-robin, power-of-two, bitstream-affinity, or a
// third-party RegisterDispatcher registration). Pairs take per-pair
// platform assignments (FarmConfig.PairPlatforms), so a farm can mix
// board types — ZCU216 Big.Little pairs next to U250 quads and
// PYNQ-class edge boards. Dispatchers are capacity-aware: an
// application routes only to pairs whose slot classes can hold it,
// and cross-pair rebalancing validates destination compatibility the
// same way. Per-pair load is maintained incrementally from engine
// lifecycle hooks, so dispatch is O(pairs) per arrival; an optional
// rebalancer generalizes the pair-internal live migration to
// pair-to-pair transfers over a rack-level link.
//
// A farm makes its pairs' records — each with its own simulation
// kernel — from one slice of clusters, with pair i at entry i, and
// builds no board up front: a fleet whose arrivals reach a few of its
// pairs pays only for those pairs' boards. A pair holds its kernel
// inline; a switching pair's link, trigger and traces live in one
// slice per farm, which a farm of a fixed pair does not make. Engines
// report to their pair through a typed view of the Cluster
// (sched.Pair). Active boards take their
// storage from a farm-owned sched.BoardPool, which allocates boards,
// slots, engines, slot records and policies in chunks that double in
// size, so allocations grow with the log of the pairs built, whether
// dispatch touches a few pairs or every one. A spare, built when the
// pair's own events first need it, is built on storage of its own.
//
// A farm has one executor, on one goroutine. The farm kernel (Farm.K)
// holds only the control plane: arrival dispatch, rebalance ticks,
// rack-link transfers, orchestrator ticks and fault chains. Before each
// control instant every pair with earlier work runs up to it on its own
// kernel (conservative lookahead, see exec.go); then the instant's
// control events run. Farm.Step runs the same schedule one event at a
// time. Either way a farm keeps the kernel's determinism guarantee:
// same configuration and seed, byte-identical results.
package cluster
