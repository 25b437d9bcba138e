package hypervisor

import (
	"testing"

	"versaslot/internal/sim"
)

func TestSingleCoreSharesServer(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCores(k, SingleCore, 0)
	if c.Sched != c.PR {
		t.Fatal("single-core model must run PR on the scheduler core")
	}
}

func TestDualCoreSeparatesServers(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCores(k, DualCore, 0)
	if c.Sched == c.PR {
		t.Fatal("dual-core model must dedicate a PR core")
	}
	if c.Sched.Name() == c.PR.Name() {
		t.Fatal("cores share a name")
	}
}

// TestDualCoreParallelism is the paper's core claim in miniature: on a
// single core a PR load delays a launch; on dual cores they overlap.
func TestDualCoreParallelism(t *testing.T) {
	run := func(model CoreModel) sim.Time {
		k := sim.NewKernel(1)
		c := NewCores(k, model, 0)
		var launchDone sim.Time
		c.PR.SubmitFunc("pr", "pr", 30*sim.Millisecond, nil)
		c.Sched.SubmitFunc("launch", "launch", 1*sim.Millisecond, func() {
			launchDone = k.Now()
		})
		k.Run()
		return launchDone
	}
	single := run(SingleCore)
	dual := run(DualCore)
	if single != sim.Time(31*sim.Millisecond) {
		t.Fatalf("single-core launch at %v, want 31ms (blocked by PR)", single)
	}
	if dual != sim.Time(1*sim.Millisecond) {
		t.Fatalf("dual-core launch at %v, want 1ms (PR on other core)", dual)
	}
}

func TestOCMCounters(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCores(k, DualCore, 3)
	c.PostPRRequest()
	c.PostPRRequest()
	c.PostPRStatus()
	if c.OCM.PRRequests != 2 || c.OCM.PRStatus != 1 {
		t.Fatalf("OCM counters %+v", c.OCM)
	}
}

func TestCoreNames(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCores(k, DualCore, 7)
	if c.Sched.Name() != "board7/core0" {
		t.Fatalf("sched core name %q", c.Sched.Name())
	}
	if c.PR.Name() != "board7/core1" {
		t.Fatalf("PR core name %q", c.PR.Name())
	}
}

// TestCoreNamesFormattedOnce checks that rebuilding a board's cores
// reuses the interned names instead of formatting them again.
func TestCoreNamesFormattedOnce(t *testing.T) {
	k := sim.NewKernel(1)
	var c Cores
	c.Init(k, DualCore, 11)
	if allocs := testing.AllocsPerRun(100, func() { c.Init(k, DualCore, 11) }); allocs != 0 {
		t.Fatalf("re-initializing board 11's cores allocates %.0f times, want 0", allocs)
	}
	if c.Sched.Name() != "board11/core0" || c.PR.Name() != "board11/core1" {
		t.Fatalf("core names %q, %q", c.Sched.Name(), c.PR.Name())
	}
}

func TestCoreModelString(t *testing.T) {
	if SingleCore.String() != "single-core" || DualCore.String() != "dual-core" {
		t.Fatal("CoreModel strings")
	}
}
