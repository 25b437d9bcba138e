package sched

import "versaslot/internal/appmodel"

// Policy is a scheduling algorithm driven by the engine: the engine
// invokes Schedule as a CPU job whenever something happened (arrival,
// PR completion, item completion); the policy inspects state and issues
// PRs, launches, evictions.
type Policy interface {
	// Init binds the policy to its engine before any arrivals.
	Init(e *Engine)
	// AppArrived registers a new candidate application.
	AppArrived(a *appmodel.App)
	// Schedule performs one scheduling pass.
	Schedule()
	// AppFinished tells the policy an app completed (slots already
	// released by the engine).
	AppFinished(a *appmodel.App)
	// ExtractMigratable removes and returns apps eligible for live
	// migration: arrived but not yet executing ("applications and tasks
	// in the ready list"; ongoing tasks continue on the old board).
	ExtractMigratable() []*appmodel.App
	// AcceptMigrated enqueues apps transferred from another board.
	AcceptMigrated(apps []*appmodel.App)
}

// MigrationLimiter is an optional Policy extension for callers that
// migrate only part of the queue (the farm rebalancer): it extracts at
// most n migratable apps, preferring the cheapest to move, without
// dissolving scheduling state for apps that stay. Policies whose
// ExtractMigratable is a lossless queue drain don't need it — callers
// can extract everything and re-accept the remainder.
type MigrationLimiter interface {
	ExtractMigratableUpTo(n int) []*appmodel.App
}

// reserve returns a policy's waiting list ready for an arrival. The
// first arrival finds it nil and sizes it for every app the engine has
// been given: a single-board run's whole sequence, which InjectSequence
// lists before the first app arrives, so the list never grows in the
// run. A farm engine is given apps one at a time, so its list starts at
// the one app so far and grows by append, as it always did.
func reserve[T any](list []T, e *Engine) []T {
	if list == nil {
		return make([]T, 0, len(e.Apps))
	}
	return list
}
