package core

import (
	"testing"

	"versaslot/internal/fabric"
	"versaslot/internal/hypervisor"
	"versaslot/internal/sched"
	"versaslot/internal/workload"
)

func TestPlatformMapping(t *testing.T) {
	cases := []struct {
		kind     sched.Kind
		platform string
		cores    hypervisor.CoreModel
	}{
		{sched.KindBaseline, fabric.ZCU216Monolithic, hypervisor.SingleCore},
		{sched.KindFCFS, fabric.ZCU216OnlyLittle, hypervisor.SingleCore},
		{sched.KindRR, fabric.ZCU216OnlyLittle, hypervisor.SingleCore},
		{sched.KindNimblock, fabric.ZCU216OnlyLittle, hypervisor.SingleCore},
		{sched.KindVersaSlotOL, fabric.ZCU216OnlyLittle, hypervisor.DualCore},
		{sched.KindVersaSlotBL, fabric.ZCU216BigLittle, hypervisor.DualCore},
	}
	for _, c := range cases {
		p, m := PlatformFor(c.kind)
		if p.Name != c.platform || m != c.cores {
			t.Errorf("%v -> (%v,%v), want (%v,%v)", c.kind, p.Name, m, c.platform, c.cores)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 10
	seq := workload.Generate(p, 5)
	a, err := Run(SystemConfig{Policy: sched.KindVersaSlotBL, Seed: 3}, seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(SystemConfig{Policy: sched.KindVersaSlotBL, Seed: 3}, seq)
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
	res, err := Run(SystemConfig{Policy: sched.KindVersaSlotOL, Seed: 2}, seq)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits+res.CacheMisses == 0 {
		t.Fatal("no cache activity recorded")
	}
	// FCFS has no cache: all misses.
	res2, err := Run(SystemConfig{Policy: sched.KindFCFS, Seed: 2}, seq)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHits != 0 {
		t.Fatalf("FCFS recorded %d cache hits; its cache is disabled", res2.CacheHits)
	}
}
