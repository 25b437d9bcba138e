package sched

import (
	"versaslot/internal/appmodel"
	"versaslot/internal/sim"
)

// ArrivalCursor schedules arrival sequences onto a kernel. A sequence
// sorted by arrival time (generators emit them that way) is walked by
// one chained cursor event instead of one closure per app; unsorted
// input, or a second Schedule while a walk is in progress, falls back
// to one event per app. Every arrival fires at sim.PriArrival, so it
// stays ahead of same-instant simulation events despite its late
// sequence number. The engine, the switching pair and the farm each
// deliver their arrivals through one, created on their first
// injection (most pairs of a farm never inject themselves).
type ArrivalCursor struct {
	k       *sim.Kernel
	deliver Deliverer
	q       []*appmodel.App
	pos     int
}

// Deliverer receives the arrivals an ArrivalCursor walks.
type Deliverer interface {
	Deliver(a *appmodel.App)
}

// DeliverFunc adapts a plain function to a Deliverer.
type DeliverFunc func(a *appmodel.App)

// Deliver calls f.
func (f DeliverFunc) Deliver(a *appmodel.App) { f(a) }

// cursorStep is the cursor's chained arrival event, a typed view of
// the cursor itself, so the walk schedules without allocating.
type cursorStep ArrivalCursor

func (ev *cursorStep) Fire() {
	c := (*ArrivalCursor)(ev)
	a := c.q[c.pos]
	c.pos++
	if c.pos < len(c.q) {
		c.k.AtPHandler(c.q[c.pos].Arrival, sim.PriArrival, ev)
	}
	c.deliver.Deliver(a)
}

// NewArrivalCursor binds a cursor to its kernel and receiver.
func NewArrivalCursor(k *sim.Kernel, deliver Deliverer) *ArrivalCursor {
	return &ArrivalCursor{k: k, deliver: deliver}
}

// Schedule queues the arrivals of apps (Arrival fields are absolute
// virtual times).
func (c *ArrivalCursor) Schedule(apps []*appmodel.App) {
	if len(apps) == 0 {
		return
	}
	sorted := true
	for i := 1; i < len(apps); i++ {
		if apps[i].Arrival < apps[i-1].Arrival {
			sorted = false
			break
		}
	}
	if !sorted || c.pos < len(c.q) {
		for _, a := range apps {
			c.k.AtP(a.Arrival, sim.PriArrival, func() { c.deliver.Deliver(a) })
		}
		return
	}
	c.q, c.pos = apps, 0
	c.k.AtPHandler(apps[0].Arrival, sim.PriArrival, (*cursorStep)(c))
}
