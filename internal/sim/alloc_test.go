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
