package versaslot_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"versaslot"
	"versaslot/internal/fault"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

func TestScenarioJSONRoundTrip(t *testing.T) {
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 5
	orig := versaslot.Scenario{
		Name:          "round-trip",
		Topology:      versaslot.TopologyCluster,
		Condition:     "stress",
		Apps:          30,
		Seed:          99,
		Workload:      workload.Generate(p, 4),
		IntervalLo:    100 * sim.Millisecond,
		IntervalHi:    200 * sim.Millisecond,
		WindowUpdates: 8,
		Smoothing:     0.5,
		ThresholdUp:   0.2,
		ThresholdDown: 0.02,
	}
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := versaslot.ReadScenario(&buf)
	if err != nil {
		t.Fatalf("ReadScenario: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Errorf("round trip mismatch:\n orig: %+v\n got:  %+v", orig, got)
	}
}

func TestScenarioFarmFieldsRoundTrip(t *testing.T) {
	orig := versaslot.Scenario{
		Name:           "farm-round-trip",
		Topology:       versaslot.TopologyFarm,
		Condition:      "stress",
		Apps:           12,
		Seed:           7,
		Pairs:          4,
		Dispatcher:     "power-of-two",
		RebalanceEvery: 2 * sim.Second,
		RebalanceGap:   3,
	}
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := versaslot.ReadScenario(&buf)
	if err != nil {
		t.Fatalf("ReadScenario: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Errorf("farm fields round trip mismatch:\n orig: %+v\n got:  %+v", orig, got)
	}
}

func TestScenarioParamsRoundTrip(t *testing.T) {
	params := sched.DefaultParams()
	params.CacheEntries = 7
	params.HostControl = true
	orig := versaslot.Scenario{Policy: "fcfs", Params: &params}
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := versaslot.ReadScenario(&buf)
	if err != nil {
		t.Fatalf("ReadScenario: %v", err)
	}
	if got.Params == nil || !reflect.DeepEqual(*orig.Params, *got.Params) {
		t.Errorf("params round trip mismatch: %+v vs %+v", orig.Params, got.Params)
	}
}

// TestScenarioPartialParams runs params blocks that name only some
// constants: the block decodes over the defaults, so the constants it
// leaves out keep their default values, and a constant no model can
// run with is a validation error, not a panic mid-run.
func TestScenarioPartialParams(t *testing.T) {
	cases := []struct {
		name, params, want string // want: substring of the error; "" = runs
	}{
		{"negative cache", `{"CacheEntries":-1}`, "CacheEntries must not be negative"},
		{"pcap bandwidth only", `{"PCAPBandwidth":400000000}`, ""},
		{"unknown constant", `{"PCAPBandwith":400000000}`, "unknown field"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := versaslot.ReadScenario(strings.NewReader(`{"policy":"versaslot-bl","apps":5,"params":` + c.params + `}`))
			if err == nil {
				var res *versaslot.Result
				if res, err = versaslot.Run(s); err == nil && res.Summary.Apps != 5 {
					t.Errorf("%d of 5 apps finished", res.Summary.Apps)
				}
			}
			if c.want == "" && err != nil {
				t.Fatalf("got %v, want a run", err)
			}
			if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
				t.Fatalf("got %v, want an error containing %q", err, c.want)
			}
			if c.want == "" {
				want := sched.DefaultParams()
				want.PCAPBandwidth = 400000000
				if *s.Params != want {
					t.Errorf("params decoded to %+v, want the defaults with PCAPBandwidth set: %+v", *s.Params, want)
				}
			}
		})
	}
}

func TestReadScenarioRejectsUnknownFields(t *testing.T) {
	_, err := versaslot.ReadScenario(strings.NewReader(`{"polcy": "fcfs"}`))
	if err == nil {
		t.Error("ReadScenario accepted a misspelled field")
	}
}

func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name string
		s    versaslot.Scenario
		want string // substring of the expected error; "" = valid
	}{
		{"zero value defaults", versaslot.Scenario{}, ""},
		{"unknown policy", versaslot.Scenario{Policy: "nope"}, "unknown policy"},
		{"unknown topology", versaslot.Scenario{Topology: "ring"}, "unknown topology"},
		{"unknown condition", versaslot.Scenario{Condition: "chill"}, "unknown condition"},
		{"custom mix ok", versaslot.Scenario{BigSlots: 1, LittleSlots: 6}, ""},
		{"custom mix on cluster", versaslot.Scenario{Topology: versaslot.TopologyCluster, BigSlots: 1}, "single-topology"},
		{"custom mix with explicit policy", versaslot.Scenario{Policy: "fcfs", BigSlots: 2, LittleSlots: 4}, "conflicts with a custom slot mix"},
		{"custom mix big only", versaslot.Scenario{BigSlots: 2}, "no Little slots"},
		{"custom mix oversized", versaslot.Scenario{BigSlots: 4, LittleSlots: 4}, "the fabric holds 8"},
		{"interval hi only", versaslot.Scenario{IntervalHi: 2 * sim.Second}, "invalid interval override"},
		{"interval hi below lo", versaslot.Scenario{IntervalLo: 2 * sim.Second, IntervalHi: sim.Second}, "invalid interval override"},
		{"interval ok", versaslot.Scenario{IntervalLo: sim.Second, IntervalHi: 2 * sim.Second}, ""},
		{"policy alias", versaslot.Scenario{Policy: "versaslot"}, ""},
		{"farm dispatcher ok", versaslot.Scenario{Topology: versaslot.TopologyFarm, Dispatcher: "affinity"}, ""},
		{"dispatcher alias ok", versaslot.Scenario{Topology: versaslot.TopologyFarm, Dispatcher: "p2c"}, ""},
		{"unknown dispatcher", versaslot.Scenario{Topology: versaslot.TopologyFarm, Dispatcher: "random"}, "unknown dispatcher"},
		{"dispatcher on single", versaslot.Scenario{Dispatcher: "least-loaded"}, "farm-topology only"},
		{"rebalance on cluster", versaslot.Scenario{Topology: versaslot.TopologyCluster, RebalanceEvery: sim.Second}, "farm-topology only"},
		{"rebalance ok", versaslot.Scenario{Topology: versaslot.TopologyFarm, RebalanceEvery: sim.Second, RebalanceGap: 4}, ""},
		{"negative rebalance gap", versaslot.Scenario{Topology: versaslot.TopologyFarm, RebalanceGap: -1}, "negative rebalance gap"},
		{"threshold down above default up", versaslot.Scenario{Topology: versaslot.TopologyCluster, ThresholdDown: 0.2}, "must be below threshold_up"},
		{"threshold down equals up", versaslot.Scenario{Topology: versaslot.TopologyFarm, ThresholdUp: 0.3, ThresholdDown: 0.3}, "must be below threshold_up"},
		{"thresholds ok", versaslot.Scenario{Topology: versaslot.TopologyFarm, ThresholdUp: 0.3, ThresholdDown: 0.2}, ""},
		{"shards one ok", versaslot.Scenario{Topology: versaslot.TopologyFarm, Shards: 1}, ""},
		{"shards above one", versaslot.Scenario{Topology: versaslot.TopologyFarm, Shards: 4}, "one executor"},
		{"params zero bandwidth", versaslot.Scenario{Params: &sched.Params{CacheEntries: 4}}, "PCAPBandwidth must be positive"},
		{"pr-flaky on baseline", versaslot.Scenario{Policy: "baseline", Faults: &fault.Spec{Injectors: []fault.InjectorSpec{{Kind: "flaky-pr", Rate: 0.3}}}}, "does not apply to policy"},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if c.want == "" && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", c.name, err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
	}
}
