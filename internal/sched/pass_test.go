package sched

import (
	"testing"

	"versaslot/internal/bitstream"
	"versaslot/internal/fabric"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// waitingApps returns how many applications a built-in policy holds
// in its waiting queue.
func waitingApps(p Policy) int {
	switch p := p.(type) {
	case *Exclusive:
		return len(p.queue)
	case *FCFS:
		return len(p.queue)
	case *RR:
		return len(p.queue)
	case *Nimblock:
		return len(p.waiting)
	case *versaSlotOL:
		return len(p.waiting)
	case *VersaSlotBL:
		return len(p.cwait)
	}
	panic("waitingApps: unknown policy")
}

// TestSchedulePassZeroAlloc pins the scheduling pass of every
// registered policy as allocation-free. Each policy runs a stress
// workload until it is mid-run: apps queued, some app on the fabric
// and — for the gang policies, whose admission check used to build a
// slice of the empty slots — at least one slot empty. One pass there
// must not allocate.
func TestSchedulePassZeroAlloc(t *testing.T) {
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 30
	seq := workload.Generate(p, 5)
	for _, reg := range builtins() {
		t.Run(reg.Title, func(t *testing.T) {
			platform := fabric.MustPlatform(reg.Platform)
			e := NewEngine(sim.NewKernel(1), DefaultParams(), fabric.NewBoard(0, platform), reg.Core, bitstream.RepoFor(platform))
			e.SetPolicy(reg.Factory())
			apps, err := seq.Instantiate(0)
			if err != nil {
				t.Fatal(err)
			}
			e.InjectSequence(apps)
			gang := reg.Name == "fcfs" || reg.Name == "rr"
			class := e.Board.Platform.Smallest().Name
			midRun := func() bool {
				if waitingApps(e.Policy()) == 0 {
					return false
				}
				if gang && e.Board.CountEmpty(class) == 0 {
					return false
				}
				for _, a := range e.Active {
					if a.HeldSlots() > 0 {
						return true
					}
				}
				return false
			}
			for !midRun() {
				if !e.K.Step() {
					t.Fatalf("%s drained without reaching a mid-run state", reg.Name)
				}
			}
			pass := e.Policy().Schedule
			if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
				t.Errorf("%s: scheduling pass allocates %.2f times, want 0", reg.Name, allocs)
			}
		})
	}
}

// TestHoistedFreeExact checks the incremental free-slot count that
// admission, top-up and Algorithm 1 carry through a pass instead of
// rescanning: at every event of a stress run, the count each returns
// must equal a fresh CountEmpty minus reserved slack.
func TestHoistedFreeExact(t *testing.T) {
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 30
	seq := workload.Generate(p, 9)
	for _, name := range []string{"nimblock", "versaslot-ol", "versaslot-bl"} {
		reg := builtin(t, name)
		t.Run(reg.Title, func(t *testing.T) {
			platform := fabric.MustPlatform(reg.Platform)
			e := NewEngine(sim.NewKernel(1), DefaultParams(), fabric.NewBoard(0, platform), reg.Core, bitstream.RepoFor(platform))
			e.SetPolicy(reg.Factory())
			apps, err := seq.Instantiate(0)
			if err != nil {
				t.Fatal(err)
			}
			e.InjectSequence(apps)
			// An extra allocation step per event: Schedule may run the
			// same steps again at any time, so this keeps the run valid.
			check := func() (got, want int) {
				switch pol := e.Policy().(type) {
				case *VersaSlotBL:
					pol.releaseAndReuse()
					got = pol.allocate()
					want = e.Board.CountEmpty(pol.little.Name) - slack(pol.sLittle)
				default:
					var l *littleSched
					if n, ok := pol.(*Nimblock); ok {
						l = &n.littleSched
					} else {
						l = &pol.(*versaSlotOL).littleSched
					}
					l.releaseAndReuse()
					got = l.admit(e.Board.CountEmpty(l.class.Name) - l.reservedSlack())
					if l.redistribute {
						got = l.topUp(got)
					}
					want = e.Board.CountEmpty(l.class.Name) - l.reservedSlack()
				}
				return got, want
			}
			steps := 0
			for e.K.Step() {
				if got, want := check(); got != want {
					t.Fatalf("step %d (%v): hoisted free %d, rescan %d", steps, e.Now(), got, want)
				}
				steps++
			}
			e.CheckQuiescent()
		})
	}
}
