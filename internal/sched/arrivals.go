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
	deliver func(*appmodel.App)
	q       []*appmodel.App
	pos     int
	step    func()
}

// NewArrivalCursor binds a cursor to its kernel and delivery function.
func NewArrivalCursor(k *sim.Kernel, deliver func(*appmodel.App)) *ArrivalCursor {
	c := &ArrivalCursor{k: k, deliver: deliver}
	c.step = func() {
		a := c.q[c.pos]
		c.pos++
		if c.pos < len(c.q) {
			c.k.AtP(c.q[c.pos].Arrival, sim.PriArrival, c.step)
		}
		c.deliver(a)
	}
	return c
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
			c.k.AtP(a.Arrival, sim.PriArrival, func() { c.deliver(a) })
		}
		return
	}
	c.q, c.pos = apps, 0
	c.k.AtP(apps[0].Arrival, sim.PriArrival, c.step)
}
