package versaslot_test

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"versaslot"
	"versaslot/internal/fault"
	"versaslot/internal/sim"
	"versaslot/internal/trace"
)

// resultBytes canonicalizes a Result for byte-level comparison.
func resultBytes(t *testing.T, res *versaslot.Result) string {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(raw)
}

// TestEmptyFaultsByteIdentical proves the chaos subsystem's core
// invariant: a scenario with no faults block, an empty faults block, or
// a faults block carrying only a seed produces byte-identical Results —
// attaching nothing draws nothing and schedules nothing.
func TestEmptyFaultsByteIdentical(t *testing.T) {
	base := versaslot.Scenario{
		Topology: versaslot.TopologyCluster, Condition: "stress", Apps: 16, Seed: 9,
	}
	ref, err := versaslot.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want := resultBytes(t, ref)
	for name, faults := range map[string]*fault.Spec{
		"empty-spec": {},
		"seed-only":  {Seed: 123},
	} {
		sc := base
		sc.Faults = faults
		res, err := versaslot.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := resultBytes(t, res); got != want {
			t.Errorf("%s: result diverged from fault-free run", name)
		}
	}
}

// TestChaosDeterministic runs every chaos catalog scenario twice
// sequentially and once through the RunMany worker pool: all three
// Results must be byte-identical — fault schedules live on the
// topology's own kernel and forked streams, so parallel sweeps cannot
// perturb them.
func TestChaosDeterministic(t *testing.T) {
	names := []string{"chaos-slot-storm", "chaos-flaky-pr", "chaos-farm-outage"}
	scenarios := make([]versaslot.Scenario, len(names))
	for i, name := range names {
		sc, err := versaslot.LoadScenario(filepath.Join("scenarios", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		scenarios[i] = sc
	}
	pooled, err := versaslot.RunMany(scenarios, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scenarios {
		first, err := versaslot.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		second, err := versaslot.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		a, b, c := resultBytes(t, first), resultBytes(t, second), resultBytes(t, pooled[i])
		if a != b {
			t.Errorf("%s: sequential reruns diverge", sc.Name)
		}
		if a != c {
			t.Errorf("%s: RunMany result diverges from sequential", sc.Name)
		}
	}
}

// TestChaosImpact checks the chaos scenarios actually perturb their
// runs: fail/recover chains cost availability and crash-restart apps,
// flaky reconfiguration forces retries, and every run still drains.
func TestChaosImpact(t *testing.T) {
	storm, err := versaslot.LoadScenario(filepath.Join("scenarios", "chaos-slot-storm.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := versaslot.Run(storm)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.Apps != storm.Apps {
		t.Errorf("slot-storm: finished %d of %d apps", s.Apps, storm.Apps)
	}
	if s.Availability <= 0 || s.Availability >= 1 {
		t.Errorf("slot-storm: availability = %v, want in (0,1)", s.Availability)
	}
	if s.Downtime <= 0 {
		t.Errorf("slot-storm: downtime = %v, want > 0", s.Downtime)
	}
	if s.FaultEvents == 0 {
		t.Error("slot-storm: no fault events recorded")
	}
	if s.FailedApps == 0 {
		t.Error("slot-storm: no crash-restarted apps")
	}

	flaky, err := versaslot.LoadScenario(filepath.Join("scenarios", "chaos-flaky-pr.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err = versaslot.Run(flaky)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.RetriedApps == 0 {
		t.Error("flaky-pr: no applications needed fault-injected PR retries")
	}
	if res.Summary.Apps != flaky.Apps {
		t.Errorf("flaky-pr: finished %d of %d apps", res.Summary.Apps, flaky.Apps)
	}
}

// TestChaosAllInjectorsDrain layers every built-in injector on every
// topology and checks the workload still drains deterministically —
// the convergence guard for injector interactions (a crash during a
// board outage, a straggle episode on a failed slot, checkpointed
// restarts paying migration costs).
func TestChaosAllInjectorsDrain(t *testing.T) {
	full := &fault.Spec{Injectors: []fault.InjectorSpec{
		{Kind: "slot-fail", MTBF: 25 * sim.Second, MTTR: 2 * sim.Second},
		{Kind: "board-fail", MTBF: 40 * sim.Second, MTTR: 2 * sim.Second},
		{Kind: "pr-flaky", Rate: 0.2},
		{Kind: "straggler", MTBF: 20 * sim.Second, MTTR: 2 * sim.Second, Factor: 2.0},
		{Kind: "checkpoint", CheckpointBytes: 64, RestoreDelay: sim.Millisecond},
	}}
	for _, tc := range []versaslot.Scenario{
		{Topology: versaslot.TopologySingle, Condition: "stress", Apps: 20, Seed: 7, Faults: full},
		{Topology: versaslot.TopologyCluster, Condition: "stress", Apps: 20, Seed: 7, Faults: full},
		{Topology: versaslot.TopologyFarm, Pairs: 2, Condition: "stress", Apps: 20, Seed: 7,
			RebalanceEvery: 2 * sim.Second, RebalanceGap: 2, Faults: full},
	} {
		tc := tc
		t.Run(string(tc.Topology), func(t *testing.T) {
			t.Parallel()
			first, err := versaslot.Run(tc)
			if err != nil {
				t.Fatal(err)
			}
			if first.Summary.Apps != tc.Apps {
				t.Fatalf("finished %d of %d apps", first.Summary.Apps, tc.Apps)
			}
			second, err := versaslot.Run(tc)
			if err != nil {
				t.Fatal(err)
			}
			if resultBytes(t, first) != resultBytes(t, second) {
				t.Error("rerun diverged")
			}
		})
	}
}

// TestBaselineFaultsDrain runs the exclusive baseline through slot,
// board and straggler faults. A slot can fail while the baseline's full
// reconfiguration is in flight; the loading app must hold no slot then,
// or its crash-restart clears the app the reconfiguration completes.
// No item may start on a slot that is down: the baseline neither
// swaps in while a region it needs is down nor keeps a design whose
// region failed during the swap. The engine trace's slot-failure,
// recovery and item-start lines show which slots are down when each
// item starts. Each case has its own runner and trace counters, so the
// cases run in parallel.
func TestBaselineFaultsDrain(t *testing.T) {
	faults := &fault.Spec{Injectors: []fault.InjectorSpec{
		{Kind: "slot-fail", MTBF: 2 * sim.Second, MTTR: 200 * sim.Millisecond},
		{Kind: "board-fail", MTBF: 5 * sim.Second, MTTR: 300 * sim.Millisecond},
		{Kind: "straggler", MTBF: 3 * sim.Second, MTTR: 300 * sim.Millisecond, Factor: 2},
	}}
	for _, cond := range []string{"stress", "standard"} {
		for seed := uint64(1); seed <= 8; seed++ {
			sc := versaslot.Scenario{Policy: "baseline", Condition: cond, Apps: 20, Seed: seed, Faults: faults}
			t.Run(fmt.Sprintf("%s/seed=%d", cond, seed), func(t *testing.T) {
				t.Parallel()
				down := map[int]bool{}
				var starts, onDown, failures int
				r := versaslot.NewRunner(versaslot.WithTrace(func(format string, args ...any) {
					switch format {
					case "%v slot %d FAILED":
						down[args[1].(int)] = true
						failures++
					case "%v slot %d recovered":
						delete(down, args[1].(int))
					case "%v exec %v item %d on slot %d (%v)":
						starts++
						if down[args[3].(int)] {
							onDown++
						}
					}
				}))
				res, err := r.Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if res.Summary.Apps != sc.Apps {
					t.Fatalf("finished %d of %d apps", res.Summary.Apps, sc.Apps)
				}
				if starts == 0 || failures == 0 {
					t.Fatalf("trace saw %d item starts and %d slot failures; the format strings changed", starts, failures)
				}
				if onDown > 0 {
					t.Errorf("%d of %d items started on a failed slot", onDown, starts)
				}
			})
		}
	}
}

// TestChaosTraceSeesFaults checks that the fault paths still reach an
// attached trace and recorder: their arguments are built only behind a
// sink check, so a check that tested the wrong sink would silence them.
// It also checks that attaching the sinks leaves the Result unchanged.
func TestChaosTraceSeesFaults(t *testing.T) {
	sc := versaslot.Scenario{
		Topology: versaslot.TopologySingle, Policy: "versaslot-bl", Condition: "stress", Apps: 20, Seed: 11,
		Faults: &fault.Spec{Injectors: []fault.InjectorSpec{
			{Kind: "slot-fail", MTBF: 2 * sim.Second, MTTR: 200 * sim.Millisecond},
			{Kind: "board-fail", MTBF: 5 * sim.Second, MTTR: 300 * sim.Millisecond},
			{Kind: "pr-flaky", Rate: 0.3, MaxRetries: 2},
		}},
	}
	var log strings.Builder
	rec := trace.NewRecorder(0)
	traced, err := versaslot.NewRunner(
		versaslot.WithTrace(func(format string, args ...any) {
			fmt.Fprintf(&log, format+"\n", args...)
		}),
		versaslot.WithRecorder(rec),
	).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{" FAILED", " recovered", " crash-restart", " PR fault retry "} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("trace has no %q line", want)
		}
	}
	counts := map[trace.Kind]int{}
	for _, ev := range rec.Events() {
		counts[ev.Kind]++
	}
	for _, k := range []trace.Kind{trace.SlotFail, trace.SlotRecover, trace.AppCrash, trace.PRRetry} {
		if counts[k] == 0 {
			t.Errorf("recorder holds no %v event", k)
		}
	}
	plain, err := versaslot.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if resultBytes(t, traced) != resultBytes(t, plain) {
		t.Error("attaching a trace and a recorder changed the Result")
	}
}
