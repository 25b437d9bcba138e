package sched

import (
	"testing"

	"versaslot/internal/appmodel"
	"versaslot/internal/bitstream"
	"versaslot/internal/fabric"
	"versaslot/internal/hypervisor"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// runWithFailureRate executes a small workload under the pr-flaky
// reconfiguration-error model at the given per-attempt rate (three
// retries, 1 ms doubling backoff) and returns the engine. Rate 0
// installs no model.
func runWithFailureRate(t *testing.T, rate float64, kind Kind) *Engine {
	t.Helper()
	k := sim.NewKernel(7)
	repo := bitstream.NewRepository()
	bitstream.NewGenerator().GenerateAll(repo, workload.Suite())
	cfg := fabric.ZCU216OnlyLittle
	model := hypervisor.SingleCore
	if kind == KindVersaSlotBL {
		cfg, model = fabric.ZCU216BigLittle, hypervisor.DualCore
	}
	if kind == KindVersaSlotOL {
		model = hypervisor.DualCore
	}
	e := NewEngine(k, DefaultParams(), fabric.NewBoard(0, fabric.MustPlatform(cfg)), model, repo)
	e.SetPolicy(New(kind))
	if rate > 0 {
		e.EnableFaultMetrics()
		e.SetPRFault(rate, 3, sim.Millisecond, 2, sim.NewRNG(11))
	}
	apps := []*appmodel.App{
		appmodel.NewApp(0, workload.IC, 8, 0),
		appmodel.NewApp(1, workload.OF, 8, sim.Time(50*sim.Millisecond)),
		appmodel.NewApp(2, workload.AN, 8, sim.Time(100*sim.Millisecond)),
	}
	e.InjectSequence(apps)
	k.Run()
	e.CheckQuiescent()
	return e
}

func TestPRFailureInjectionRetriesAndCompletes(t *testing.T) {
	for _, kind := range []Kind{KindNimblock, KindVersaSlotOL, KindVersaSlotBL} {
		e := runWithFailureRate(t, 0.4, kind)
		if e.Col.PRRetries == 0 {
			t.Errorf("%v: 40%% PR failure rate produced no retries", kind)
		}
		if len(e.Col.Responses) != 3 {
			t.Errorf("%v: %d of 3 apps finished under failure injection", kind, len(e.Col.Responses))
		}
	}
}

func TestNoFailuresWithoutInjection(t *testing.T) {
	e := runWithFailureRate(t, 0, KindVersaSlotBL)
	if e.Col.PRRetries != 0 {
		t.Fatalf("retries recorded without a fault model: %d", e.Col.PRRetries)
	}
}

func TestFailureInjectionSlowsResponse(t *testing.T) {
	clean := runWithFailureRate(t, 0, KindNimblock)
	faulty := runWithFailureRate(t, 0.6, KindNimblock)
	var cleanSum, faultySum sim.Duration
	for i := range clean.Col.Responses {
		cleanSum += clean.Col.Responses[i].Response
		faultySum += faulty.Col.Responses[i].Response
	}
	if faultySum <= cleanSum {
		t.Fatalf("PR retries did not slow the run: %v vs %v", faultySum, cleanSum)
	}
}

func TestFailureInjectionDeterministic(t *testing.T) {
	a := runWithFailureRate(t, 0.4, KindVersaSlotOL)
	b := runWithFailureRate(t, 0.4, KindVersaSlotOL)
	if a.Col.PRRetries != b.Col.PRRetries {
		t.Fatalf("retry counts differ across identical runs: %d vs %d",
			a.Col.PRRetries, b.Col.PRRetries)
	}
	for i := range a.Col.Responses {
		if a.Col.Responses[i].Response != b.Col.Responses[i].Response {
			t.Fatal("responses differ across identical seeded runs")
		}
	}
}
