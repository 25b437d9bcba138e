package sched

import (
	"fmt"

	"versaslot/internal/appmodel"
)

// Policy is a scheduling algorithm driven by the engine: the engine
// invokes Schedule as a CPU job whenever something happened (arrival,
// PR completion, item completion); the policy inspects state and issues
// PRs, launches, evictions.
type Policy interface {
	// Name identifies the policy in reports ("VersaSlot Big.Little").
	Name() string
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

// Kind enumerates the built-in policies.
type Kind int

const (
	// KindBaseline is exclusive temporal multiplexing with full-fabric
	// reconfiguration.
	KindBaseline Kind = iota
	// KindFCFS is first-come-first-served spatio-temporal sharing.
	KindFCFS
	// KindRR is Coyote-style round-robin sharing.
	KindRR
	// KindNimblock is the state-of-the-art single-core slot scheduler.
	KindNimblock
	// KindVersaSlotOL is VersaSlot on an Only.Little board.
	KindVersaSlotOL
	// KindVersaSlotBL is VersaSlot on a Big.Little board.
	KindVersaSlotBL
)

// Kinds lists all policies in the paper's presentation order.
func Kinds() []Kind {
	return []Kind{KindBaseline, KindFCFS, KindRR, KindNimblock, KindVersaSlotOL, KindVersaSlotBL}
}

func (k Kind) String() string {
	switch k {
	case KindBaseline:
		return "Baseline"
	case KindFCFS:
		return "FCFS"
	case KindRR:
		return "RR"
	case KindNimblock:
		return "Nimblock"
	case KindVersaSlotOL:
		return "VersaSlot Only.Little"
	case KindVersaSlotBL:
		return "VersaSlot Big.Little"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// New constructs a policy instance of the given built-in kind via the
// registry.
func New(k Kind) Policy {
	r, ok := ByKind(k)
	if !ok {
		panic(fmt.Sprintf("sched: unknown policy kind %d", int(k)))
	}
	return r.Factory()
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
