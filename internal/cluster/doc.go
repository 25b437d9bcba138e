// Package cluster orchestrates multiple FPGA boards at two scales.
//
// A Cluster is the paper's switching pair (Section III-D, Figs. 4 and
// 8): it hosts the applications its farm routes to it on the active
// board, evaluates D_switch on the paper's cadence, drives the
// Schmitt-trigger switching loop, pre-warms the spare board inside the
// buffer zone, and performs live migration over the Aurora interlink.
// A migrated app lands on whichever board is active when it arrives:
// a delivery can itself trigger the next switch. The spare board is
// built the first time a prewarm, a switch or a caller needs it; until
// then it merges as an idle board.
//
// A Cluster only runs inside a Farm, which owns it: the facade's
// cluster topology is a farm of exactly one pair, so every pair runs
// through the same arrival, fault and merge path.
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
// A farm builds its pairs from slabs: one slice each of clusters,
// active boards, board storage, engines, slot records, policies and
// (when sharded) pair kernels, sized to the pair count, with pair i
// at entry i of each. A pair holds its link and trigger inline, and
// its engines report to it through a typed view of the Cluster
// (sched.Pair), so construction costs the same few allocations
// whatever the farm's size. A spare is built on storage of its own the
// first time it is needed; the slabs never reserve room for spares.
//
// A farm's pairs run on one simulation kernel, or on per-pair kernels
// under the sharded coordinator, and either way keep the kernel's
// determinism guarantee: same configuration and seed, byte-identical
// results.
package cluster
