package versaslot_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"versaslot"
)

// goldenScenarios are legacy (pre-platform-model) scenario shapes whose
// Results are pinned byte-for-byte by testdata/golden/*.json. The
// goldens were captured before the declarative platform refactor, so
// this test proves the refactor preserved every sample, counter and
// switch decision of the enum-era Big.Little/Only.Little substrate.
//
// Regenerate (only after an intentional behavior change, never to make
// a refactor pass): VERSASLOT_UPDATE_GOLDEN=1 go test -run Golden .
var goldenScenarios = []versaslot.Scenario{
	{Name: "single-bl-standard", Policy: "versaslot-bl", Condition: "standard", Apps: 20, Seed: 1},
	{Name: "single-ol-stress", Policy: "versaslot-ol", Condition: "stress", Apps: 16, Seed: 3},
	{Name: "single-nimblock-standard", Policy: "nimblock", Condition: "standard", Apps: 12, Seed: 2},
	{Name: "single-rr-loose", Policy: "rr", Condition: "loose", Apps: 10, Seed: 4},
	{Name: "single-fcfs-standard", Policy: "fcfs", Condition: "standard", Apps: 10, Seed: 6},
	{Name: "single-baseline-loose", Policy: "baseline", Condition: "loose", Apps: 8, Seed: 5},
	{Name: "custom-mix-1b5l", BigSlots: 1, LittleSlots: 5, Condition: "stress", Apps: 12, Seed: 7},
	{Name: "cluster-standard", Topology: versaslot.TopologyCluster, Condition: "standard", Apps: 30, Seed: 1},
	{Name: "cluster-stress", Topology: versaslot.TopologyCluster, Condition: "stress", Apps: 24, Seed: 9},
	{Name: "farm-least-loaded", Topology: versaslot.TopologyFarm, Pairs: 3, Condition: "stress", Apps: 24, Seed: 2},
	{Name: "farm-p2c-rebalance", Topology: versaslot.TopologyFarm, Pairs: 4, Dispatcher: "power-of-two",
		Condition: "stress", Apps: 32, Seed: 8, RebalanceEvery: 2_000_000_000, RebalanceGap: 2},
	{Name: "farm-affinity", Topology: versaslot.TopologyFarm, Pairs: 2, Dispatcher: "affinity",
		Condition: "standard", Apps: 18, Seed: 11},
	{Name: "farm-round-robin", Topology: versaslot.TopologyFarm, Pairs: 3, Dispatcher: "round-robin",
		Condition: "stress", Apps: 21, Seed: 12},
}

// canonicalGolden renders a Result as indented JSON with sorted keys,
// after stripping fields the platform refactor added (they carry new
// information, not changed behavior): the goldens predate them.
func canonicalGolden(t *testing.T, res *versaslot.Result) []byte {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	// Post-refactor additions, absent from the pre-refactor goldens.
	delete(m, "platform")
	delete(m, "pair_platforms")
	if sum, ok := m["summary"].(map[string]any); ok {
		delete(sum, "UtilDSP")
		delete(sum, "UtilBRAM")
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatalf("remarshal result: %v", err)
	}
	return append(out, '\n')
}

// TestGoldenLegacyScenarios pins legacy scenario Results byte-for-byte
// against goldens captured before the platform-model refactor.
func TestGoldenLegacyScenarios(t *testing.T) {
	update := os.Getenv("VERSASLOT_UPDATE_GOLDEN") != ""
	for _, sc := range goldenScenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := versaslot.Run(sc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			got := canonicalGolden(t, res)
			path := filepath.Join("testdata", "golden", sc.Name+".json")
			if update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with VERSASLOT_UPDATE_GOLDEN=1 to create): %v", err)
			}
			if string(got) != string(want) {
				t.Fatalf("result diverged from pre-refactor golden %s\n%s", path, firstDiff(string(want), string(got)))
			}
		})
	}
}

// catalogGoldenScenarios are heterogeneous-platform catalog entries
// whose Results are pinned in full (no field stripping — they postdate
// the platform refactor): the mixed and edge-cloud farms exercise
// per-pair platform assignment, u250-quad the four-big single board.
// Loading through LoadScenario pins the JSON decode path too.
var catalogGoldenScenarios = []string{
	"hetero-farm-mixed",
	"hetero-farm-edge-cloud",
	"u250-quad-single",
	// Orchestrator catalog entries: multi-tenant admission under quota
	// pressure, and the autoscaler breathing with a diurnal arrival
	// process. Their goldens pin the full per-tenant ledger and the
	// timestamped scale-event log.
	"tenants-quota-burst",
	"autoscale-diurnal",
	// The one stream-mode golden: a 4-pair farm whose Result pins the
	// sketch merge (percentiles, per-spec aggregates, the windowed
	// time-series) and the multi-board utilization rule byte for byte.
	"long-horizon-diurnal",
}

// TestGoldenCatalogScenarios pins heterogeneous catalog scenarios
// byte-for-byte. Regenerate only after an intentional behavior change:
// VERSASLOT_UPDATE_GOLDEN=1 go test -run Golden .
func TestGoldenCatalogScenarios(t *testing.T) {
	update := os.Getenv("VERSASLOT_UPDATE_GOLDEN") != ""
	for _, name := range catalogGoldenScenarios {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, err := versaslot.LoadScenario(filepath.Join("scenarios", name+".json"))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			res, err := versaslot.Run(sc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			raw, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatalf("marshal result: %v", err)
			}
			got := append(raw, '\n')
			path := filepath.Join("testdata", "golden", "catalog-"+name+".json")
			if update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with VERSASLOT_UPDATE_GOLDEN=1 to create): %v", err)
			}
			if string(got) != string(want) {
				t.Fatalf("result diverged from golden %s\n%s", path, firstDiff(string(want), string(got)))
			}
		})
	}
}

// firstDiff locates the first byte where two JSON dumps diverge and
// returns a context window around it.
func firstDiff(want, got string) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	i := 0
	for i < n && want[i] == got[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	hiW, hiG := i+120, i+120
	if hiW > len(want) {
		hiW = len(want)
	}
	if hiG > len(got) {
		hiG = len(got)
	}
	return fmt.Sprintf("first divergence at byte %d\nwant ...%s...\ngot  ...%s...", i, want[lo:hiW], got[lo:hiG])
}
