package versaslot

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"

	"versaslot/internal/fault"
	"versaslot/internal/sim"
)

// streamScenario is the shared stream-mode scenario the determinism
// tests run: enough apps for meaningful percentiles, windows sized so
// the time-series has several entries.
func streamScenario() Scenario {
	return Scenario{
		Name:      "stream-determinism",
		Condition: "stress",
		Apps:      120,
		Seed:      7,
		Metrics:   &MetricsSpec{Mode: "stream", Window: 5 * sim.Second, MaxWindows: 32},
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStreamRunManyDeterministic pins that a stream-mode run is byte-
// identical whether executed solo or inside a concurrent RunMany
// batch: sketches and windows fold per-engine and merge in fixed
// engine order, so worker scheduling cannot perturb the output.
func TestStreamRunManyDeterministic(t *testing.T) {
	solo, err := Run(streamScenario())
	if err != nil {
		t.Fatal(err)
	}
	batch := []Scenario{streamScenario(), streamScenario(), streamScenario()}
	many, err := RunMany(batch, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, solo)
	for i, r := range many {
		if got := mustJSON(t, r); got != want {
			t.Errorf("RunMany result %d differs from the solo run", i)
		}
	}
}

// TestStreamMatchesExact runs each input in both metrics modes and
// pins stream mode to its documented contract. Every Summary field
// except the percentiles, the makespan, the per-spec breakdown and
// every PairStat field except P50 are identical across modes (they are
// tracked exactly, and multi-board runs merge through one path), and
// each reported percentile lands within 1% rank error of the exact
// sample distribution. The multi-board inputs pin the merge rules:
// utilization weighted by each board's completed apps in both modes.
// Every input runs 120 apps: a 1% rank bound needs n >= 100 samples to
// be resolvable at all.
func TestStreamMatchesExact(t *testing.T) {
	faults := &fault.Spec{Injectors: []fault.InjectorSpec{
		{Kind: "board-fail", MTBF: 15 * sim.Second, MTTR: 2 * sim.Second},
		{Kind: "pr-flaky", Rate: 0.25, MaxRetries: 3, Backoff: sim.Millisecond, BackoffFactor: 2},
		{Kind: "slot-fail", MTBF: 25 * sim.Second, MTTR: 2 * sim.Second},
	}}
	inputs := []Scenario{
		streamScenario(),
		{Name: "stream-cluster", Topology: TopologyCluster, Condition: "stress", Apps: 120, Seed: 3},
		{Name: "stream-farm", Topology: TopologyFarm, Pairs: 4, Condition: "stress", Apps: 120, Seed: 5,
			RebalanceEvery: 5 * sim.Second},
		{Name: "stream-farm-faults", Topology: TopologyFarm, Pairs: 4, Condition: "stress", Apps: 120, Seed: 13,
			RebalanceEvery: 2 * sim.Second, Faults: faults},
		// This farm's pairs prewarm and switch, so their spares are
		// built mid-run and stream from then on.
		{Name: "stream-farm-switching", Topology: TopologyFarm, Pairs: 4, Condition: "real-time", Apps: 120, Seed: 1},
	}
	for _, in := range inputs {
		t.Run(in.Name, func(t *testing.T) {
			ex := in
			ex.Metrics = nil
			exact, err := Run(ex)
			if err != nil {
				t.Fatal(err)
			}
			st := in
			st.Metrics = streamScenario().Metrics
			stream, err := Run(st)
			if err != nil {
				t.Fatal(err)
			}
			checkStreamMatchesExact(t, exact, stream)
		})
	}
}

func checkStreamMatchesExact(t *testing.T, exact, stream *Result) {
	t.Helper()
	es, ss := exact.Summary, stream.Summary
	ez, sz := es, ss
	ez.P50, ez.P95, ez.P99 = 0, 0, 0
	sz.P50, sz.P95, sz.P99 = 0, 0, 0
	if ez != sz {
		t.Errorf("exactly-tracked stats diverged:\nexact  %+v\nstream %+v", es, ss)
	}
	if exact.Makespan != stream.Makespan {
		t.Errorf("makespan diverged: exact %v stream %v", exact.Makespan, stream.Makespan)
	}
	if !reflect.DeepEqual(exact.BySpec, stream.BySpec) {
		t.Errorf("by-spec breakdown diverged:\nexact  %+v\nstream %+v", exact.BySpec, stream.BySpec)
	}
	if len(exact.PairStats) != len(stream.PairStats) {
		t.Fatalf("pair stats: exact has %d pairs, stream %d", len(exact.PairStats), len(stream.PairStats))
	}
	for i, ep := range exact.PairStats {
		sp := stream.PairStats[i]
		ep.P50, sp.P50 = 0, 0
		if ep != sp {
			t.Errorf("pair %d stats diverged:\nexact  %+v\nstream %+v", i, exact.PairStats[i], stream.PairStats[i])
		}
	}
	sorted := make([]float64, len(exact.Samples))
	for i, s := range exact.Samples {
		sorted[i] = float64(s.Response)
	}
	sort.Float64s(sorted)
	n := float64(len(sorted))
	for _, q := range []struct {
		p   float64
		got sim.Duration
	}{{50, ss.P50}, {95, ss.P95}, {99, ss.P99}} {
		v := float64(q.got)
		// Fractional ranks of the estimate in the exact distribution,
		// tie-aware: [share strictly below, share at or below].
		lo := float64(sort.SearchFloat64s(sorted, v)) / n
		hi := float64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })) / n
		target := q.p / 100
		if target < lo-0.01 || target > hi+0.01 {
			t.Errorf("P%.0f=%v has exact rank [%.4f, %.4f]; target %.2f is outside the 1%% bound",
				q.p, q.got, lo, hi, target)
		}
		// And the estimate stays within the sketch's relative value
		// band of the exact percentile, widened by the local
		// inter-sample gap interpolation can span at this n.
		exactV := exact.Percentile(q.p)
		if exactV > 0 {
			rel := math.Abs(v-float64(exactV)) / float64(exactV)
			if rel > 0.05 {
				t.Errorf("P%.0f: stream %v vs exact %v (relative error %.4f)", q.p, q.got, exactV, rel)
			}
		}
	}
	if len(stream.TimeSeries) == 0 {
		t.Fatal("stream run produced no time-series")
	}
	apps := 0
	for _, w := range stream.TimeSeries {
		apps += w.Apps
	}
	if apps != ss.Apps {
		t.Errorf("time-series windows account for %d apps, summary has %d", apps, ss.Apps)
	}
	if stream.MetricsMode != "stream" {
		t.Errorf("metrics_mode %q, want \"stream\"", stream.MetricsMode)
	}
	if exact.MetricsMode != "" || len(exact.TimeSeries) != 0 {
		t.Errorf("exact run leaked stream fields: mode %q, %d windows", exact.MetricsMode, len(exact.TimeSeries))
	}
}

// TestStreamClusterRuns smoke-tests the switching-pair topology in
// stream mode: both boards' sketches merge into the pair summary.
func TestStreamClusterRuns(t *testing.T) {
	r, err := Run(Scenario{
		Topology:  TopologyCluster,
		Condition: "stress",
		Apps:      40,
		Seed:      3,
		Metrics:   &MetricsSpec{Mode: "stream"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary.Apps != 40 {
		t.Errorf("cluster stream run finished %d apps, want 40", r.Summary.Apps)
	}
	if len(r.Samples) != 0 {
		t.Errorf("stream cluster retained %d samples", len(r.Samples))
	}
	if len(r.TimeSeries) == 0 {
		t.Error("stream cluster produced no time-series")
	}
}

// TestMetricsSpecValidation pins the metrics block's validation rules.
func TestMetricsSpecValidation(t *testing.T) {
	bad := []Scenario{
		{Metrics: &MetricsSpec{Mode: "sketchy"}},
		{Metrics: &MetricsSpec{Mode: "exact", Window: sim.Second}},
		{Metrics: &MetricsSpec{Mode: "exact", MaxWindows: 4}},
		{Metrics: &MetricsSpec{Mode: "stream", Window: -sim.Second}},
		{Metrics: &MetricsSpec{Mode: "stream", MaxWindows: -1}},
		{Metrics: &MetricsSpec{Mode: "stream", MaxWindows: 1 << 20}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("scenario %d: metrics block %+v validated; want an error", i, *s.Metrics)
		}
	}
	ok := Scenario{Metrics: &MetricsSpec{Mode: "stream", Window: 60 * sim.Second, MaxWindows: 128}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid stream block rejected: %v", err)
	}
}
