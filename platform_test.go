package versaslot_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"versaslot"
	"versaslot/internal/cluster"
	"versaslot/internal/fabric"
	"versaslot/internal/sim"
)

// heteroFarmScenario mixes ZCU216 Big.Little, U250 quad and PYNQ dual
// pairs in one farm with rebalancing — the heterogeneous-fleet shape
// the platform model exists for.
func heteroFarmScenario(dispatcher string) versaslot.Scenario {
	return versaslot.Scenario{
		Name:      "hetero-" + dispatcher,
		Topology:  versaslot.TopologyFarm,
		Pairs:     3,
		Condition: "stress",
		Apps:      24,
		Seed:      31,
		PairPlatforms: []cluster.PairPlatforms{
			{},
			{Base: fabric.U250Quad, Boost: fabric.U250Quad},
			{Base: fabric.PYNQDual, Boost: fabric.PYNQDual},
		},
		Dispatcher:     dispatcher,
		RebalanceEvery: 2 * sim.Second,
	}
}

// TestHeterogeneousFarmDeterminism: a mixed-platform farm must be
// byte-identical across repeated sequential runs, and RunMany on a
// worker pool must reproduce sequential execution byte for byte, for
// every registered dispatcher. CI runs this under -race.
func TestHeterogeneousFarmDeterminism(t *testing.T) {
	var scenarios []versaslot.Scenario
	for _, d := range versaslot.Dispatchers() {
		scenarios = append(scenarios, heteroFarmScenario(d))
	}
	sequential := make([][]byte, len(scenarios))
	for i, sc := range scenarios {
		res, err := versaslot.Run(sc)
		if err != nil {
			t.Fatalf("sequential %s: %v", sc.Name, err)
		}
		sequential[i] = resultJSON(t, res)
		again, err := versaslot.Run(sc)
		if err != nil {
			t.Fatalf("repeat %s: %v", sc.Name, err)
		}
		if !bytes.Equal(sequential[i], resultJSON(t, again)) {
			t.Fatalf("%s: heterogeneous farm not deterministic across runs", sc.Name)
		}
		if res.Summary.Apps != sc.Apps {
			t.Fatalf("%s: finished %d apps, want %d", sc.Name, res.Summary.Apps, sc.Apps)
		}
	}
	parallel, err := versaslot.RunMany(scenarios, 4)
	if err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	for i, res := range parallel {
		if got := resultJSON(t, res); !bytes.Equal(sequential[i], got) {
			t.Errorf("%s: parallel result differs from sequential", scenarios[i].Name)
		}
	}
}

// TestHeterogeneousFarmRoutesAroundSmallPair: the PYNQ pair only ever
// receives applications whose circuits fit its Small slots, and at
// least one arriving application had to be steered away from it.
func TestHeterogeneousFarmRoutesAroundSmallPair(t *testing.T) {
	res, err := versaslot.Run(heteroFarmScenario("least-loaded"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routed) != 3 {
		t.Fatalf("routed vector %v", res.Routed)
	}
	// The stress workload draws from the full suite; LeNet/AN/3DR
	// tasks exceed a Small slot, so the PYNQ pair cannot take its
	// proportional share — some apps must have routed elsewhere.
	if res.Routed[2] >= res.Summary.Apps/3 {
		t.Fatalf("PYNQ pair took a full share of arrivals (%v) — capacity-aware dispatch not engaged", res.Routed)
	}
	if res.Routed[0]+res.Routed[1]+res.Routed[2] != res.Summary.Apps {
		t.Fatalf("routed apps %v do not sum to %d", res.Routed, res.Summary.Apps)
	}
	if len(res.PairPlatforms) != 3 || res.PairPlatforms[2].Base != fabric.PYNQDual {
		t.Fatalf("pair platform assignment not reported: %+v", res.PairPlatforms)
	}
}

// TestScenarioPlatformRoundTrip: the platform block (ref and inline)
// survives a JSON round trip unchanged.
func TestScenarioPlatformRoundTrip(t *testing.T) {
	scenarios := []versaslot.Scenario{
		{
			Name:     "ref",
			Platform: &fabric.PlatformSpec{Ref: fabric.U250Quad},
			Apps:     4,
		},
		{
			Name: "inline",
			Platform: &fabric.PlatformSpec{
				Name:       "tri-slot",
				AreaBudget: 4,
				Classes: []fabric.ClassSpec{
					{Name: "Big", Count: 1, Cap: fabric.BigSlotCap, Area: 2},
					{Name: "Little", Count: 2, Cap: fabric.LittleSlotCap, Area: 1},
				},
			},
			Apps: 4,
		},
		{
			Name:     "farm",
			Topology: versaslot.TopologyFarm,
			Pairs:    2,
			PairPlatforms: []cluster.PairPlatforms{
				{}, {Base: fabric.U250Quad, Boost: fabric.U250Quad},
			},
			Apps: 4,
		},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := sc.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := versaslot.ReadScenario(&buf)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(sc)
			b, _ := json.Marshal(back)
			if !bytes.Equal(a, b) {
				t.Fatalf("round trip changed the scenario:\n%s\n%s", a, b)
			}
		})
	}
}

// TestScenarioPlatformValidation: the platform block's misuse modes
// fail Validate with clear errors.
func TestScenarioPlatformValidation(t *testing.T) {
	cases := []struct {
		name string
		sc   versaslot.Scenario
	}{
		{"platform-on-farm", versaslot.Scenario{
			Topology: versaslot.TopologyFarm,
			Platform: &fabric.PlatformSpec{Ref: fabric.U250Quad},
		}},
		{"unknown-ref", versaslot.Scenario{
			Platform: &fabric.PlatformSpec{Ref: "no-such-board"},
		}},
		{"platform-plus-custom-mix", versaslot.Scenario{
			Platform: &fabric.PlatformSpec{Ref: fabric.U250Quad},
			BigSlots: 1, LittleSlots: 2,
		}},
		{"bl-policy-on-uniform-platform", versaslot.Scenario{
			Policy:   "versaslot-bl",
			Platform: &fabric.PlatformSpec{Ref: fabric.U250Quad},
		}},
		{"dpr-policy-on-virtual-platform", versaslot.Scenario{
			Policy:   "nimblock",
			Platform: &fabric.PlatformSpec{Ref: fabric.ZCU216Monolithic},
		}},
		{"over-tiled-inline", versaslot.Scenario{
			Platform: &fabric.PlatformSpec{
				Name:       "too-big",
				AreaBudget: 2,
				Classes: []fabric.ClassSpec{
					{Name: "Little", Count: 3, Cap: fabric.LittleSlotCap, Area: 1},
				},
			},
		}},
		{"pair-platforms-on-single", versaslot.Scenario{
			PairPlatforms: []cluster.PairPlatforms{{Base: fabric.U250Quad}},
		}},
		{"virtual-pair-platform", versaslot.Scenario{
			Topology:      versaslot.TopologyCluster,
			PairPlatforms: []cluster.PairPlatforms{{Boost: fabric.ZCU216Monolithic}},
		}},
		{"too-many-pair-entries", versaslot.Scenario{
			Topology: versaslot.TopologyFarm,
			Pairs:    2,
			PairPlatforms: []cluster.PairPlatforms{
				{}, {}, {Base: fabric.U250Quad},
			},
		}},
	}
	for _, c := range cases {
		if err := c.sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid scenario", c.name)
		}
	}
}

// TestPlatformSelectsMatchingPolicy: with no policy named, the
// platform shape picks the matching VersaSlot variant (or the
// baseline on a virtual platform), and the run completes.
func TestPlatformSelectsMatchingPolicy(t *testing.T) {
	cases := []struct {
		ref    string
		policy string
	}{
		{fabric.U250Quad, "versaslot-ol"},
		{fabric.ZCU216OnlyBig, "versaslot-ol"},
		{fabric.ZCU216BigLittle, "versaslot-bl"},
		{fabric.ZCU216Monolithic, "baseline"},
	}
	for _, c := range cases {
		res, err := versaslot.Run(versaslot.Scenario{
			Platform:  &fabric.PlatformSpec{Ref: c.ref},
			Condition: "loose",
			Apps:      4,
			Seed:      5,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.ref, err)
		}
		if res.Policy != c.policy {
			t.Errorf("%s: ran policy %q, want %q", c.ref, res.Policy, c.policy)
		}
		if res.Platform != c.ref {
			t.Errorf("%s: Result.Platform = %q", c.ref, res.Platform)
		}
		if res.Summary.Apps != 4 {
			t.Errorf("%s: finished %d apps, want 4", c.ref, res.Summary.Apps)
		}
	}
}

// TestSinglePlatformRejectsUnhostableWorkload: a PYNQ-class board
// cannot run the full suite (LeNet exceeds a Small slot) and must say
// so instead of deadlocking.
func TestSinglePlatformRejectsUnhostableWorkload(t *testing.T) {
	_, err := versaslot.Run(versaslot.Scenario{
		Platform:  &fabric.PlatformSpec{Ref: fabric.PYNQDual},
		Condition: "standard",
		Apps:      12,
		Seed:      3,
	})
	if err == nil {
		t.Fatal("unhostable workload ran on pynq-dual")
	}
}

// TestUnhostableErrorsPrefixed checks that a workload no board can host
// fails with the facade's "versaslot: " prefix, on a single board and
// on a farm whose every pair is too small.
func TestUnhostableErrorsPrefixed(t *testing.T) {
	pynq := &fabric.PlatformSpec{Ref: fabric.PYNQDual}
	for _, c := range []struct {
		name string
		s    versaslot.Scenario
		want string
	}{
		{"single", versaslot.Scenario{Policy: "versaslot-ol", Platform: pynq, Condition: "standard", Apps: 12, Seed: 3},
			`fits no slot class of platform "pynq-dual"`},
		{"farm", versaslot.Scenario{Topology: versaslot.TopologyFarm, Pairs: 2, Condition: "standard", Apps: 12, Seed: 3,
			PairPlatforms: []cluster.PairPlatforms{{Base: fabric.PYNQDual, Boost: fabric.PYNQDual}, {Base: fabric.PYNQDual, Boost: fabric.PYNQDual}}},
			"fits no slot class on any pair of the farm"},
	} {
		_, err := versaslot.Run(c.s)
		if err == nil || !strings.HasPrefix(err.Error(), "versaslot: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want the versaslot: prefix and %q", c.name, err, c.want)
		}
	}
}
