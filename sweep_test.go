package versaslot_test

import (
	"bytes"
	"sync/atomic"
	"testing"

	"versaslot"
)

func sweepScenarios() []versaslot.Scenario {
	return versaslot.Sweep{
		Base:       versaslot.Scenario{Apps: 8},
		Policies:   []string{"nimblock", "versaslot-bl"},
		Conditions: []string{"loose", "stress"},
		Seeds:      []uint64{1, 2},
	}.Scenarios()
}

func TestSweepScenariosCrossProduct(t *testing.T) {
	scenarios := sweepScenarios()
	if len(scenarios) != 8 {
		t.Fatalf("Sweep expanded to %d scenarios, want 8 (2 seeds x 2 conditions x 2 policies)", len(scenarios))
	}
	seen := make(map[string]bool)
	for _, s := range scenarios {
		if seen[s.Name] {
			t.Errorf("duplicate sweep scenario %q", s.Name)
		}
		seen[s.Name] = true
		if s.Apps != 8 {
			t.Errorf("%s: base field Apps not carried through (got %d)", s.Name, s.Apps)
		}
	}
	if !seen["nimblock/loose/seed1"] || !seen["versaslot-bl/stress/seed2"] {
		t.Errorf("missing expected sweep names; got %v", seen)
	}
}

// TestRunManyMatchesSequential: a worker pool must not change results —
// 8 workers and 1 worker produce byte-identical output for the same
// seeds (the acceptance bar for parallel sweep execution).
func TestRunManyMatchesSequential(t *testing.T) {
	scenarios := sweepScenarios()
	parallel, err := versaslot.RunMany(scenarios, 8)
	if err != nil {
		t.Fatalf("parallel RunMany: %v", err)
	}
	sequential, err := versaslot.RunMany(scenarios, 1)
	if err != nil {
		t.Fatalf("sequential RunMany: %v", err)
	}
	if len(parallel) != len(scenarios) || len(sequential) != len(scenarios) {
		t.Fatalf("result counts: parallel=%d sequential=%d want %d",
			len(parallel), len(sequential), len(scenarios))
	}
	for i := range scenarios {
		a, b := resultJSON(t, parallel[i]), resultJSON(t, sequential[i])
		if !bytes.Equal(a, b) {
			t.Errorf("scenario %d (%s): parallel and sequential results differ", i, scenarios[i].Name)
		}
	}
}

// TestRunManyObserverRace exercises the serialized observer under
// concurrent runs; run with -race to verify the synchronization.
func TestRunManyObserverRace(t *testing.T) {
	var events atomic.Int64
	// Guarded by the runner's observer mutex.
	var finishes int
	perScenario := make(map[string]int)
	runner := versaslot.NewRunner(versaslot.WithObserver(func(ev versaslot.Event) {
		events.Add(1)
		if ev.Kind == "finish" {
			finishes++
			perScenario[ev.Scenario]++
		}
	}))
	scenarios := sweepScenarios()
	results, err := runner.RunMany(scenarios, 8)
	if err != nil {
		t.Fatal(err)
	}
	var apps int
	for i, r := range results {
		apps += r.Summary.Apps
		if got := perScenario[scenarios[i].Name]; got != r.Summary.Apps {
			t.Errorf("scenario %q: observer attributed %d finishes, result has %d apps",
				scenarios[i].Name, got, r.Summary.Apps)
		}
	}
	if finishes != apps {
		t.Errorf("observer saw %d finishes, results report %d apps", finishes, apps)
	}
	if events.Load() < int64(2*apps) {
		t.Errorf("observer saw %d events, want at least %d (arrival+finish per app)", events.Load(), 2*apps)
	}
}

func TestRunManyPartialErrors(t *testing.T) {
	scenarios := []versaslot.Scenario{
		{Policy: "fcfs", Condition: "loose", Apps: 4, Seed: 1},
		{Policy: "does-not-exist"},
		{Policy: "rr", Condition: "loose", Apps: 4, Seed: 1},
	}
	results, err := versaslot.RunMany(scenarios, 2)
	if err == nil {
		t.Fatal("RunMany with a bad scenario returned nil error")
	}
	if results[0] == nil || results[2] == nil {
		t.Error("good scenarios did not produce results alongside the failing one")
	}
	if results[1] != nil {
		t.Error("failing scenario produced a result")
	}
}

// TestRunManySharedWorkloadIdentical: the sequence cache must be
// invisible in results — a RunMany over scenarios sharing (condition,
// seed) matches the same scenarios executed one by one through Run
// (which takes the uncached path) byte for byte.
func TestRunManySharedWorkloadIdentical(t *testing.T) {
	grid := versaslot.Sweep{
		Base:     versaslot.Scenario{Apps: 6, Condition: "stress", Seed: 7},
		Policies: []string{"fcfs", "rr", "nimblock", "versaslot-bl"},
	}.Scenarios()
	cached, err := versaslot.RunMany(grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range grid {
		solo, err := versaslot.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !bytes.Equal(resultJSON(t, cached[i]), resultJSON(t, solo)) {
			t.Errorf("%s: cached-sequence result differs from solo run", s.Name)
		}
	}
}

// TestPooledHelpers pins the cross-result helpers the experiments
// package builds its tables from: pooled samples concatenate, the
// pooled percentile reads the pooled distribution, and empty inputs
// report zero.
func TestPooledHelpers(t *testing.T) {
	results, err := versaslot.RunMany(versaslot.Sweep{
		Base:       versaslot.Scenario{Apps: 4},
		Policies:   []string{"versaslot-ol"},
		Conditions: []string{"loose"},
		Seeds:      []uint64{1, 2},
	}.Scenarios(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(versaslot.PooledSamples(results)); n != 8 {
		t.Fatalf("pooled %d samples, want 8", n)
	}
	p50, p95 := versaslot.PooledPercentile(results, 50), versaslot.PooledPercentile(results, 95)
	if p50 <= 0 || p95 < p50 {
		t.Fatalf("pooled P50 %v, P95 %v", p50, p95)
	}
	if mean := versaslot.MeanRT(results); mean <= 0 {
		t.Fatalf("mean RT %v", mean)
	}
	if versaslot.MeanRT(nil) != 0 || versaslot.PooledPercentile(nil, 95) != 0 {
		t.Fatal("empty inputs must report zero")
	}
}
