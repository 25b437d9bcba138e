package sched

import (
	"fmt"
	"testing"

	"versaslot/internal/appmodel"
	"versaslot/internal/sim"
)

// TestArrivalCursorOrder pins the cursor's three paths: a sorted
// sequence walks on one chained event, an unsorted one falls back to
// one event per app, and a second Schedule while a walk is in progress
// falls back too. Every path delivers each app once, at its arrival
// instant, and ahead of the same-instant default-priority event x that
// was scheduled before it.
func TestArrivalCursorOrder(t *testing.T) {
	apps := func(id0 int, at ...sim.Time) []*appmodel.App {
		out := make([]*appmodel.App, len(at))
		for i, t := range at {
			out[i] = &appmodel.App{ID: id0 + i, Arrival: t}
		}
		return out
	}
	cases := []struct {
		name string
		seqs [][]*appmodel.App
		want string
	}{
		{"sorted", [][]*appmodel.App{apps(0, 10, 20, 20, 30)}, " 0@10 x@10 1@20 2@20 3@30"},
		{"unsorted", [][]*appmodel.App{apps(0, 30, 10, 20)}, " 1@10 x@10 2@20 0@30"},
		{"mid-walk", [][]*appmodel.App{apps(0, 10, 30), apps(2, 20, 40)}, " 0@10 x@10 2@20 1@30 3@40"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			got := ""
			k.At(10, func() { got += fmt.Sprintf(" x@%d", k.Now()) })
			c := NewArrivalCursor(k, DeliverFunc(func(a *appmodel.App) { got += fmt.Sprintf(" %d@%d", a.ID, k.Now()) }))
			for _, seq := range tc.seqs {
				c.Schedule(seq)
			}
			k.Run()
			if got != tc.want {
				t.Errorf("delivered %q, want %q", got, tc.want)
			}
		})
	}
}
