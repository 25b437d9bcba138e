package sim

import (
	"testing"
)

func TestServerFIFO(t *testing.T) {
	k := NewKernel(1)
	s := NewServer(k, "core0")
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.SubmitFunc("job", "test", 10*Millisecond, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("jobs out of order: %v", order)
		}
	}
	if k.Now() != Time(50*Millisecond) {
		t.Fatalf("five 10ms jobs ended at %v", k.Now())
	}
}

// waitLog records the queueing wait of every job it starts.
type waitLog []Duration

func (w *waitLog) Started(wait Duration) { *w = append(*w, wait) }

func TestServerWaitAccounting(t *testing.T) {
	k := NewKernel(1)
	s := NewServer(k, "pcap")
	var waits []Duration
	for i := 0; i < 3; i++ {
		s.Submit(&Job{
			Name: "load", Class: "pr", Cost: 20 * Millisecond,
			Start: (*waitLog)(&waits),
		})
	}
	k.Run()
	want := []Duration{0, 20 * Millisecond, 40 * Millisecond}
	for i, w := range waits {
		if w != want[i] {
			t.Fatalf("wait[%d]=%v want %v", i, w, want[i])
		}
	}
	st := s.Stats()
	if st.Completed != 3 {
		t.Fatalf("completed %d", st.Completed)
	}
	if st.Waited != 2 {
		t.Fatalf("waited %d, want 2", st.Waited)
	}
	if st.WaitTime != 60*Millisecond {
		t.Fatalf("wait time %v, want 60ms", st.WaitTime)
	}
	if st.BusyTime != 60*Millisecond {
		t.Fatalf("busy time %v", st.BusyTime)
	}
	if st.ByClass["pr"] != 3 {
		t.Fatalf("class accounting %v", st.ByClass)
	}
}

// TestServerStatsClassMaps pins the map view Stats builds from the
// per-class counters: a class appears in ByClass once a job of it
// completed and in WaitByName once one queued, and the maps are
// copies.
func TestServerStatsClassMaps(t *testing.T) {
	k := NewKernel(1)
	s := NewServer(k, "core0")
	s.SubmitFunc("a", "launch", 10*Millisecond, nil) // starts at once
	s.SubmitFunc("b", "sched", 10*Millisecond, nil)  // queues 10ms
	s.SubmitFunc("c", "launch", 10*Millisecond, nil) // queues 20ms
	st := s.Stats()
	if len(st.ByClass) != 0 || len(st.WaitByName) != 0 {
		t.Fatalf("before any completion: ByClass %v WaitByName %v", st.ByClass, st.WaitByName)
	}
	k.Run()
	st = s.Stats()
	if len(st.ByClass) != 2 || st.ByClass["launch"] != 2 || st.ByClass["sched"] != 1 {
		t.Fatalf("ByClass %v", st.ByClass)
	}
	if len(st.WaitByName) != 2 || st.WaitByName["launch"] != 20*Millisecond || st.WaitByName["sched"] != 10*Millisecond {
		t.Fatalf("WaitByName %v", st.WaitByName)
	}
	st.ByClass["launch"] = 99
	if s.Stats().ByClass["launch"] != 2 {
		t.Fatal("Stats returned the server's own map")
	}

	idle := NewServer(k, "pcap")
	idle.SubmitFunc("x", "pr", Millisecond, nil)
	k.Run()
	if st := idle.Stats(); st.ByClass["pr"] != 1 || len(st.WaitByName) != 0 {
		t.Fatalf("unqueued job: ByClass %v WaitByName %v", st.ByClass, st.WaitByName)
	}
}

// TestServerWaitOf checks the per-class wait accessor against the map
// view Stats builds, for queued, unqueued and unseen classes, and that
// reading it allocates nothing.
func TestServerWaitOf(t *testing.T) {
	k := NewKernel(1)
	var s Server // held inline, as hypervisor.Cores holds its cores
	s.Init(k, "core0")
	s.SubmitFunc("a", "launch", 10*Millisecond, nil) // starts at once
	s.SubmitFunc("b", "sched", 10*Millisecond, nil)  // queues 10ms
	s.SubmitFunc("c", "launch", 10*Millisecond, nil) // queues 20ms
	s.SubmitFunc("d", "pr", 0, nil)                  // queues 30ms
	k.Run()
	st := s.Stats()
	for _, class := range []string{"launch", "sched", "pr", "unseen"} {
		if got, want := s.WaitOf(class), st.WaitByName[class]; got != want {
			t.Errorf("WaitOf(%q) = %v, Stats says %v", class, got, want)
		}
	}
	if got := s.WaitOf("launch"); got != 20*Millisecond {
		t.Errorf("WaitOf(launch) = %v, want 20ms", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.WaitOf("pr") }); allocs != 0 {
		t.Errorf("WaitOf allocates %.0f times, want 0", allocs)
	}
}

func TestServerIdleThenBusy(t *testing.T) {
	k := NewKernel(1)
	s := NewServer(k, "core")
	if s.Busy() {
		t.Fatal("new server busy")
	}
	s.SubmitFunc("a", "x", 5*Millisecond, nil)
	if !s.Busy() {
		t.Fatal("server not busy after submit")
	}
	k.Run()
	if s.Busy() {
		t.Fatal("server busy after drain")
	}
}

func TestServerCancelQueuedJob(t *testing.T) {
	k := NewKernel(1)
	s := NewServer(k, "core")
	ran := false
	s.SubmitFunc("first", "x", 10*Millisecond, nil)
	j := &Job{Name: "second", Class: "x", Cost: 10 * Millisecond, Done: Func(func() { ran = true })}
	s.Submit(j)
	j.Cancel()
	k.Run()
	if ran {
		t.Fatal("canceled job ran")
	}
	if k.Now() != Time(10*Millisecond) {
		t.Fatalf("clock %v, want 10ms", k.Now())
	}
}

func TestServerPendingByClass(t *testing.T) {
	k := NewKernel(1)
	s := NewServer(k, "core")
	s.SubmitFunc("running", "pr", 10*Millisecond, nil)
	s.SubmitFunc("q1", "pr", 10*Millisecond, nil)
	s.SubmitFunc("q2", "launch", 10*Millisecond, nil)
	s.SubmitFunc("q3", "launch", 10*Millisecond, nil).Cancel()
	if got := s.PendingByClass("pr"); got != 2 {
		t.Fatalf("pending pr %d, want 2 (one running, one queued)", got)
	}
	if got := s.PendingByClass("launch"); got != 1 {
		t.Fatalf("pending launch %d, want 1", got)
	}
	k.Run()
	if s.PendingByClass("pr") != 0 {
		t.Fatal("pending after drain")
	}
}

func TestServerDoneMaySubmitMore(t *testing.T) {
	k := NewKernel(1)
	s := NewServer(k, "core")
	var order []string
	s.SubmitFunc("a", "x", 5*Millisecond, func() {
		order = append(order, "a")
		s.SubmitFunc("b", "x", 5*Millisecond, func() { order = append(order, "b") })
	})
	k.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("chained submission broken: %v", order)
	}
}

func TestServerIdleHook(t *testing.T) {
	k := NewKernel(1)
	s := NewServer(k, "core")
	idles := 0
	s.IdleHook = func() { idles++ }
	s.SubmitFunc("a", "x", 5*Millisecond, nil)
	s.SubmitFunc("b", "x", 5*Millisecond, nil)
	k.Run()
	if idles != 1 {
		t.Fatalf("idle hook fired %d times, want 1 (after the queue drained)", idles)
	}
}

func TestServerNegativeCostPanics(t *testing.T) {
	k := NewKernel(1)
	s := NewServer(k, "core")
	defer func() {
		if recover() == nil {
			t.Error("negative cost did not panic")
		}
	}()
	s.SubmitFunc("bad", "x", -1, nil)
}

func TestServerZeroCostJob(t *testing.T) {
	k := NewKernel(1)
	s := NewServer(k, "core")
	ran := false
	s.SubmitFunc("instant", "x", 0, func() { ran = true })
	k.Run()
	if !ran {
		t.Fatal("zero-cost job never completed")
	}
}
