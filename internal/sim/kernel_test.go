package sim

import (
	"testing"
	"testing/quick"
)

func TestKernelExecutesInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.Schedule(30*Millisecond, func() { order = append(order, 3) })
	k.Schedule(10*Millisecond, func() { order = append(order, 1) })
	k.Schedule(20*Millisecond, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if k.Now() != Time(30*Millisecond) {
		t.Fatalf("clock at %v, want 30ms", k.Now())
	}
}

func TestKernelSameTimeFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5*Millisecond, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestKernelPriorityOrdersSameInstant(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.ScheduleP(time10ms(), 5, func() { order = append(order, "low") })
	k.ScheduleP(time10ms(), -5, func() { order = append(order, "high") })
	k.Run()
	if order[0] != "high" || order[1] != "low" {
		t.Fatalf("priority ignored: %v", order)
	}
}

func time10ms() Duration { return 10 * Millisecond }

func TestKernelCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.Schedule(10*Millisecond, func() { fired = true })
	if !k.Scheduled(e) {
		t.Fatal("fresh event not scheduled")
	}
	k.Cancel(e)
	k.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if k.Scheduled(e) {
		t.Fatal("event still scheduled after cancel")
	}
	// Double-cancel and canceling the zero handle are no-ops.
	k.Cancel(e)
	k.Cancel(NoEvent)
}

func TestKernelCancelDuringRun(t *testing.T) {
	k := NewKernel(1)
	var e2 EventID
	fired := false
	k.Schedule(5*Millisecond, func() { k.Cancel(e2) })
	e2 = k.Schedule(10*Millisecond, func() { fired = true })
	k.Run()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestKernelCancelAfterFire(t *testing.T) {
	k := NewKernel(1)
	n := 0
	e := k.Schedule(Millisecond, func() { n++ })
	k.Run()
	if n != 1 {
		t.Fatalf("event fired %d times", n)
	}
	// Canceling after the fire is a no-op...
	k.Cancel(e)
	if k.Scheduled(e) {
		t.Fatal("fired event reports scheduled")
	}
	// ...and the stale handle must not touch the recycled slot: the
	// next Schedule reuses the arena entry the fired event vacated.
	fired := false
	e2 := k.Schedule(Millisecond, func() { fired = true })
	k.Cancel(e) // stale: generation mismatch, must not cancel e2
	if !k.Scheduled(e2) {
		t.Fatal("stale cancel hit the recycled slot")
	}
	k.Run()
	if !fired {
		t.Fatal("recycled-slot event did not fire")
	}
}

func TestKernelCancelTwice(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.Schedule(Millisecond, func() { fired = true })
	other := k.Schedule(2*Millisecond, func() {})
	k.Cancel(e)
	if k.Pending() != 1 {
		t.Fatalf("pending %d after cancel, want 1", k.Pending())
	}
	k.Cancel(e) // second cancel must not double-decrement live count
	if k.Pending() != 1 {
		t.Fatalf("pending %d after double cancel, want 1", k.Pending())
	}
	k.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	_ = other
}

func TestKernelEventTime(t *testing.T) {
	k := NewKernel(1)
	e := k.Schedule(7*Millisecond, func() {})
	at, ok := k.EventTime(e)
	if !ok || at != Time(7*Millisecond) {
		t.Fatalf("EventTime = %v,%v", at, ok)
	}
	k.Run()
	if _, ok := k.EventTime(e); ok {
		t.Fatal("EventTime true for fired event")
	}
	if _, ok := k.EventTime(NoEvent); ok {
		t.Fatal("EventTime true for zero handle")
	}
}

// TestKernelSameInstantFIFOAcrossRebalancing forces many heap
// rebalance operations (interleaved earlier/later events, cancels, and
// free-list recycling) and asserts same-instant events still fire in
// submission order.
func TestKernelSameInstantFIFOAcrossRebalancing(t *testing.T) {
	k := NewKernel(1)
	var order []int
	// A batch of same-instant events, interleaved with earlier fillers
	// that force sift operations, some of which are canceled.
	var fillers []EventID
	for i := 0; i < 64; i++ {
		i := i
		k.Schedule(50*Millisecond, func() { order = append(order, i) })
		d := Duration(i%7+1) * Millisecond
		fillers = append(fillers, k.Schedule(d, func() {}))
	}
	for i, e := range fillers {
		if i%3 == 0 {
			k.Cancel(e)
		}
	}
	// Drain the fillers so their slots recycle, then add more
	// same-instant events into recycled slots.
	k.RunUntil(Time(10 * Millisecond))
	for i := 64; i < 96; i++ {
		i := i
		k.At(Time(50*Millisecond), func() { order = append(order, i) })
	}
	k.Run()
	if len(order) != 96 {
		t.Fatalf("fired %d of 96 same-instant events", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order at %d: %v", i, order[:i+1])
		}
	}
}

// TestKernelHorizonDrop: events past the horizon are dropped silently —
// never executed, never advancing the clock.
func TestKernelHorizonDrop(t *testing.T) {
	k := NewKernel(1)
	k.SetHorizon(Time(10 * Millisecond))
	var fired []int
	k.Schedule(5*Millisecond, func() { fired = append(fired, 1) })
	k.Schedule(20*Millisecond, func() { fired = append(fired, 2) })
	k.Schedule(10*Millisecond, func() { fired = append(fired, 3) })
	k.Run()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired %v, want [1 3]", fired)
	}
	if k.Now() != Time(10*Millisecond) {
		t.Fatalf("clock advanced to %v past horizon", k.Now())
	}
	if k.Executed() != 2 {
		t.Fatalf("executed %d, want 2", k.Executed())
	}
	if k.Pending() != 0 {
		t.Fatalf("pending %d after drop, want 0", k.Pending())
	}
}

// TestKernelFreeListRecycling: steady-state schedule/fire cycles must
// not grow the arena past the peak concurrency.
func TestKernelFreeListRecycling(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 10000; i++ {
		k.Schedule(Microsecond, func() {})
		k.Step()
	}
	if n := len(k.arena); n != 1 {
		t.Fatalf("arena grew to %d slots for 1 concurrent event", n)
	}
}

func TestKernelSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(10*Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(Time(5*Millisecond), func() {})
	})
	k.Run()
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	k.Schedule(-1, func() {})
}

func TestKernelNilCallbackPanics(t *testing.T) {
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	k.Schedule(0, nil)
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []int
	k.Schedule(10*Millisecond, func() { fired = append(fired, 1) })
	k.Schedule(30*Millisecond, func() { fired = append(fired, 2) })
	k.RunUntil(Time(20 * Millisecond))
	if len(fired) != 1 {
		t.Fatalf("RunUntil executed %d events, want 1", len(fired))
	}
	if k.Now() != Time(20*Millisecond) {
		t.Fatalf("clock %v, want 20ms", k.Now())
	}
	k.Run()
	if len(fired) != 2 {
		t.Fatalf("remaining event not run")
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			k.Schedule(Millisecond, rec)
		}
	}
	k.Schedule(Millisecond, rec)
	k.Run()
	if depth != 100 {
		t.Fatalf("depth %d, want 100", depth)
	}
	if k.Executed() != 100 {
		t.Fatalf("executed %d, want 100", k.Executed())
	}
}

func TestKernelStep(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.Schedule(Millisecond, func() { n++ })
	k.Schedule(2*Millisecond, func() { n++ })
	if !k.Step() {
		t.Fatal("Step returned false with events pending")
	}
	if n != 1 {
		t.Fatalf("n=%d after one step", n)
	}
	if !k.Step() || k.Step() {
		t.Fatal("Step miscounted events")
	}
}

// TestKernelDeterminism: two kernels fed the same program execute the
// same number of events and end at the same time.
func TestKernelDeterminism(t *testing.T) {
	run := func(seed uint64) (uint64, Time) {
		k := NewKernel(seed)
		for i := 0; i < 50; i++ {
			d := Duration(k.RNG().IntRange(1, 1000)) * Microsecond
			k.Schedule(d, func() {
				if k.RNG().Float64() < 0.5 {
					k.Schedule(Millisecond, func() {})
				}
			})
		}
		k.Run()
		return k.Executed(), k.Now()
	}
	e1, t1 := run(99)
	e2, t2 := run(99)
	if e1 != e2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", e1, t1, e2, t2)
	}
}

// Property: the kernel clock never goes backwards across any schedule
// of events.
func TestKernelClockMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel(7)
		last := Time(0)
		ok := true
		for _, d := range delays {
			k.Schedule(Duration(d)*Microsecond, func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	base := Time(1500 * Millisecond)
	if base.Add(500*Millisecond) != Time(2*Second) {
		t.Fatal("Add wrong")
	}
	if base.Sub(Time(Second)) != 500*Millisecond {
		t.Fatal("Sub wrong")
	}
	if !base.Before(Time(2 * Second)) {
		t.Fatal("Before wrong")
	}
	if !base.After(Time(Second)) {
		t.Fatal("After wrong")
	}
	if base.Seconds() != 1.5 {
		t.Fatalf("Seconds %v", base.Seconds())
	}
	if base.Milliseconds() != 1500 {
		t.Fatalf("Milliseconds %v", base.Milliseconds())
	}
}

// TestKernelInitInPlace checks that Init makes a kernel in place that
// behaves like NewKernel's, including over a kernel that already ran:
// clock at zero, nothing queued, the horizon lifted, and the RNG (held
// by value) drawing NewRNG's sequence for the seed.
func TestKernelInitInPlace(t *testing.T) {
	var ks [2]Kernel
	ks[1].Init(9)
	ks[1].SetHorizon(Time(5 * Microsecond))
	ks[1].Schedule(Microsecond, func() {})
	ks[1].Schedule(10*Microsecond, func() {})
	ks[1].Run()
	ks[1].RNG().Uint64()
	for i := range ks {
		k := &ks[i]
		k.Init(7)
		ref := NewRNG(7)
		if k.Now() != 0 || k.Pending() != 0 || k.Executed() != 0 {
			t.Fatalf("kernel %d after Init: now %v, %d pending, %d executed", i, k.Now(), k.Pending(), k.Executed())
		}
		for n := 0; n < 4; n++ {
			if got, want := k.RNG().Uint64(), ref.Uint64(); got != want {
				t.Fatalf("kernel %d draw %d: %d, want %d", i, n, got, want)
			}
		}
		fired := false
		k.Schedule(10*Microsecond, func() { fired = true })
		if k.Run(); !fired {
			t.Errorf("kernel %d: an event past the old horizon did not fire", i)
		}
	}
}
