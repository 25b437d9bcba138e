package core

import (
	"testing"

	"versaslot"
	"versaslot/internal/fabric"
	"versaslot/internal/hypervisor"
	"versaslot/internal/sched"
	"versaslot/internal/workload"
)

// TestPlatformMapping checks the platform and core model each built-in
// policy declares: a single board runs on them unless its scenario
// names another platform, mirroring the paper's evaluation setup.
func TestPlatformMapping(t *testing.T) {
	cases := []struct {
		policy   string
		platform string
		cores    hypervisor.CoreModel
	}{
		{"baseline", fabric.ZCU216Monolithic, hypervisor.SingleCore},
		{"fcfs", fabric.ZCU216OnlyLittle, hypervisor.SingleCore},
		{"rr", fabric.ZCU216OnlyLittle, hypervisor.SingleCore},
		{"nimblock", fabric.ZCU216OnlyLittle, hypervisor.SingleCore},
		{"versaslot-ol", fabric.ZCU216OnlyLittle, hypervisor.DualCore},
		{"versaslot-bl", fabric.ZCU216BigLittle, hypervisor.DualCore},
	}
	for _, c := range cases {
		r, ok := sched.Lookup(c.policy)
		if !ok {
			t.Fatalf("no registration for %s", c.policy)
		}
		if r.Platform != c.platform || r.Core != c.cores {
			t.Errorf("%s -> (%v,%v), want (%v,%v)", c.policy, r.Platform, r.Core, c.platform, c.cores)
		}
		res, err := versaslot.Run(versaslot.Scenario{Policy: r.Name, Apps: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Platform != c.platform {
			t.Errorf("%s ran on %s, want %s", c.policy, res.Platform, c.platform)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 10
	seq := workload.Generate(p, 5)
	s := versaslot.Scenario{Policy: "versaslot-bl", Workload: seq, Seed: 3}
	a, err := versaslot.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := versaslot.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.MeanRT != b.Summary.MeanRT || a.Summary.P99 != b.Summary.P99 {
		t.Fatal("identical seeds produced different results")
	}
	for i := range a.Samples {
		if a.Samples[i].Response != b.Samples[i].Response {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestRunReportsCacheStats(t *testing.T) {
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 8
	seq := workload.Generate(p, 6)
	res, err := versaslot.Run(versaslot.Scenario{Policy: "versaslot-ol", Workload: seq, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits+res.CacheMisses == 0 {
		t.Fatal("no cache activity recorded")
	}
	// FCFS has no cache: all misses.
	res2, err := versaslot.Run(versaslot.Scenario{Policy: "fcfs", Workload: seq, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHits != 0 {
		t.Fatalf("FCFS recorded %d cache hits; its cache is disabled", res2.CacheHits)
	}
}

// TestNewPlatformSystem checks the deprecated shim: it builds a fixed
// one-pair farm and hands back a board that runs like the facade's.
func TestNewPlatformSystem(t *testing.T) {
	p := workload.DefaultGenParams(workload.Standard)
	p.Apps = 6
	seq := workload.Generate(p, 9)
	sys, err := NewPlatformSystem("nimblock", nil, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	apps, err := seq.Instantiate(0)
	if err != nil {
		t.Fatal(err)
	}
	sys.Engine.InjectSequence(apps)
	sys.Kernel.Run()
	sys.Engine.FlushResidency()
	want, err := versaslot.Run(versaslot.Scenario{Policy: "nimblock", Workload: seq, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine.Col.Summarize(); got != want.Summary {
		t.Errorf("shim board summarizes %+v, want the facade's %+v", got, want.Summary)
	}
	if _, err := NewPlatformSystem("bogus", nil, 1, nil); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := NewPlatformSystem("nimblock", fabric.MustPlatform(fabric.ZCU216Monolithic), 1, nil); err == nil {
		t.Error("a DPR policy accepted the monolithic template")
	}
}
