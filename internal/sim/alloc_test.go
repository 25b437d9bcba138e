package sim

import "testing"

// TestKernelScheduleStepZeroAlloc: the steady-state Schedule/Step cycle
// must be allocation-free — the arena and free list recycle event
// slots, and the heap of queue entries never reallocates once warm.
func TestKernelScheduleStepZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	// Warm up: grow the arena, free list, and heap to steady state.
	for i := 0; i < 100; i++ {
		k.Schedule(Microsecond, fn)
		k.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.Schedule(Microsecond, fn)
		k.Step()
	})
	if allocs > 0 {
		t.Fatalf("Schedule/Step allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestKernelCancelZeroAlloc: lazy-deletion cancels must not allocate.
func TestKernelCancelZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	for i := 0; i < 100; i++ {
		k.Cancel(k.Schedule(Microsecond, fn))
		k.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.Cancel(k.Schedule(Microsecond, fn))
		k.Step()
	})
	if allocs > 0 {
		t.Fatalf("Schedule/Cancel allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestServerCompletionAllocs: a server completion cycle costs at most
// the caller's Job allocation — the completion event is a typed view
// of the server itself.
func TestServerCompletionAllocs(t *testing.T) {
	k := NewKernel(1)
	s := NewServer(k, "alloc")
	for i := 0; i < 100; i++ {
		s.Submit(&Job{Name: "warm", Class: "bench", Cost: Microsecond})
		for k.Step() {
		}
	}
	job := &Job{Name: "steady", Class: "bench", Cost: Microsecond}
	allocs := testing.AllocsPerRun(1000, func() {
		j := *job
		s.Submit(&j)
		for k.Step() {
		}
	})
	// One alloc for the Job copy escaping to Submit; nothing else.
	if allocs > 1 {
		t.Fatalf("server completion cycle allocates %.2f allocs/op, want <= 1", allocs)
	}
}

// counter is a Handler whose state is the event source itself.
type counter int

func (c *counter) Fire() { *c++ }

// TestHandlerEventsZeroAlloc: scheduling a pointer Handler, directly or
// as a pooled server job's completion, allocates nothing once the
// kernel and server are warm — the pointer is the interface's data
// word, so no closure or box is made.
func TestHandlerEventsZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	s := NewServer(k, "alloc")
	var fired counter
	cycle := func() {
		k.ScheduleHandler(Microsecond, &fired)
		s.SubmitPooled("job", "bench", Microsecond, nil, &fired)
		for k.Step() {
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("handler event and job cycle allocates %.2f allocs/op, want 0", allocs)
	}
	if fired != 2*1002 {
		t.Fatalf("handler fired %d times, want %d", fired, 2*1002)
	}
}

// TestFreshKernelAllocs pins what a new kernel costs to reach 16
// pending events and drain them: the kernel (its RNG is inline), and
// one arena and one heap allocation at their first-use capacity. The
// free list lives in the free arena slots, so recycling allocates
// nothing. Growing the arena, the heap and a separate free list by
// append from empty made it 16 allocations, and a separately allocated
// RNG 4.
func TestFreshKernelAllocs(t *testing.T) {
	var fired counter
	allocs := testing.AllocsPerRun(100, func() {
		k := NewKernel(1)
		// Decreasing times: each schedule takes the next-event
		// register and pushes the previous occupant into the heap.
		for i := 16; i > 0; i-- {
			k.ScheduleHandler(Duration(i)*Microsecond, &fired)
		}
		k.Run()
	})
	const ceiling = 3
	if allocs > ceiling {
		t.Fatalf("fresh kernel with 16 events allocates %.0f times, want <= %d", allocs, ceiling)
	}
}

// TestFreshServerAllocs pins what a new kernel and server cost to run
// four pooled jobs of three classes, three of them queued: the kernel
// (its RNG is inline) and its arena, the server, one block of pooled
// jobs and one class table. Per-job allocations and a pool, a queue and
// a class table grown by append from empty made it 18, and a separately
// allocated RNG 6.
func TestFreshServerAllocs(t *testing.T) {
	var fired counter
	allocs := testing.AllocsPerRun(100, func() {
		k := NewKernel(1)
		s := NewServer(k, "pcap")
		for _, class := range []string{"pr", "launch", "sched", "pr"} {
			s.SubmitPooled("job", class, Microsecond, nil, &fired)
		}
		k.Run()
	})
	const ceiling = 5
	if allocs > ceiling {
		t.Fatalf("fresh server with 4 pooled jobs allocates %.0f times, want <= %d", allocs, ceiling)
	}
}
