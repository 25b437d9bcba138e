// Package orchestrator is the elastic control plane over a cluster
// farm: multi-tenant admission control and a deterministic,
// load-driven autoscaler.
//
// # Tenants and admission
//
// A TenantSpec declares one tenant's workload (its own arrival
// process, seeded from the scenario seed plus the tenant name), its
// quota (maximum in-flight applications), its release priority, and
// its over-quota policy — reject (drop at the door) or throttle
// (queue until headroom opens). Admission runs at every submission
// instant; throttled applications release only at admission pump
// ticks, in priority order, FIFO within a tenant.
//
// # Autoscaling
//
// The autoscaler observes windowed per-pair load (through the same
// bounded-memory sketches as the streaming metrics pipeline) on a
// fixed cadence and keeps the online pair count inside [Min, Max]
// with a hysteresis band: sustained load above UpLoad commissions a
// standby pair after a first-class scale-up latency; sustained load
// below DownLoad drains the least-loaded pair through the farm's
// cross-pair migration path and returns it to standby once idle.
//
// # Invariants
//
//   - Determinism: every orchestrator event runs on the farm
//     kernel — arrivals at sim.PriArrival, admission pump
//     ticks, autoscale ticks, activations, and drains at
//     sim.PriFarmControl. None of them run inside pair-local
//     completion hooks, so an orchestrated run is byte-identical
//     solo, in a parallel sweep, and stepped event by event.
//   - Quota: a tenant's in-flight count (admitted minus finished)
//     never exceeds its quota at any admission instant; the OnAdmit
//     hook exposes the count for property tests.
//   - Ledger: per tenant, submitted == admitted + rejected + queued
//     at every instant, and admitted == finished + in-flight; a
//     completed run ends with queued == in-flight == 0.
//   - No loss on drain: a draining pair's ready queue migrates to
//     healthy online pairs (or requeues locally when nowhere fits);
//     drained applications finish and reconcile in the same ledger.
//   - Exact stats: each tenant's response sketch, completion count
//     and SLO hits are written by the completion hooks of every pair;
//     sketch bucket counts and sums add exactly, so the order in which
//     pairs complete cannot change a tenant's distribution.
package orchestrator
