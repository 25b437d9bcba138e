package versaslot_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"versaslot"
	"versaslot/internal/trace"
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
			// canonicalGolden strips the platform name, so the one the
			// legacy slot mix resolves to is checked here.
			if want, ok := goldenPlatforms[sc.Name]; ok && res.Platform != want {
				t.Errorf("platform %q, want %q", res.Platform, want)
			}
			checkGolden(t, update, filepath.Join("testdata", "golden", sc.Name+".json"), canonicalGolden(t, res))
		})
	}
}

// goldenPlatforms names the platform a legacy golden's Result reports.
var goldenPlatforms = map[string]string{
	"custom-mix-1b5l": "zcu216-custom-1b5l",
}

// checkGolden compares got with the golden file at path, or rewrites
// the file when update is set.
func checkGolden(t *testing.T, update bool, path string, got []byte) {
	t.Helper()
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
		t.Fatalf("result diverged from golden %s\n%s", path, firstDiff(string(want), string(got)))
	}
}

// fullGolden renders a Result as the catalog goldens store it: indented
// JSON, every field kept.
func fullGolden(t *testing.T, res *versaslot.Result) []byte {
	t.Helper()
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return append(raw, '\n')
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
	// Single-board catalog entries: slot failures and stragglers on one
	// board (fault chains on the board's own kernel), and the MMPP and
	// trace-replay arrival processes.
	"chaos-slot-storm",
	"mmpp-bursty",
	"trace-ramp",
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
			checkGolden(t, update, filepath.Join("testdata", "golden", "catalog-"+name+".json"), fullGolden(t, res))
		})
	}
}

// TestGoldenSingleStream pins a single board in stream metrics mode in
// full: the board's own sketch summary and windowed time-series, with
// no sample retained.
func TestGoldenSingleStream(t *testing.T) {
	s := versaslot.Scenario{Name: "single-bl-stream", Policy: "versaslot-bl", Condition: "stress", Apps: 30, Seed: 4,
		Metrics: &versaslot.MetricsSpec{Mode: "stream", Window: 2_000_000_000, MaxWindows: 8}}
	res, err := versaslot.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 0 || len(res.TimeSeries) == 0 {
		t.Errorf("stream run retained %d samples and reported %d windows; want none and some", len(res.Samples), len(res.TimeSeries))
	}
	update := os.Getenv("VERSASLOT_UPDATE_GOLDEN") != ""
	checkGolden(t, update, filepath.Join("testdata", "golden", s.Name+".json"), fullGolden(t, res))
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

// TestGoldenSingleDiagnostics pins what a run reports through the
// runner's diagnostics: the hash of its WithTrace lines, of its
// WithObserver events and of its WithRecorder log. single-bl-standard
// is one board; the other cases add a switching pair, a farm, slot
// faults, PR fault retries and board outages.
func TestGoldenSingleDiagnostics(t *testing.T) {
	golden := func(name string) versaslot.Scenario {
		for _, s := range goldenScenarios {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("no golden scenario %q", name)
		return versaslot.Scenario{}
	}
	catalog := func(name string) versaslot.Scenario {
		s, err := versaslot.LoadScenario(filepath.Join("scenarios", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, c := range []struct {
		name                      string
		s                         versaslot.Scenario
		trace, observer, recorder string
	}{
		{"single-bl-standard", golden("single-bl-standard"),
			"db05d0cc74128046596f770e3954f7967fb13a6f7d9dcc2ad0e4e2233efdd6ab",
			"65111ca5331cd74ba382c1207517d61ce0ac4259b02d7503038e2891c67b6503",
			"8b4cc4cda7aab47f60493d0b5b2ce6144ede65559832cbfd7abf47a7849a18fe"},
		{"cluster-stress", golden("cluster-stress"),
			"6a16c41614a7e36a25ffc455ae61ab37a845d8b4ef6e111261957f65e3a6649d",
			"09e421df53acb8320c77523c646162da378fc54318446a724886a98ac7f9bb07",
			"37466d1d6de91c457f127f0a15972d5b532e9fec532be766966c21fc4f8e4871"},
		{"farm-round-robin", golden("farm-round-robin"),
			"c12d002a0c873268e23cdfe993cf370324f7f5107f57971fd59cf5e7394d2a38",
			"4ef0e055a4746aec48fbae422af1412c5d6bdb6df031dd7de8ec5ea39f0c1393",
			"bfc40e5cbf0f9c463ccb704ee8eaae63ae97a068b2483171a2830b39deecbeae"},
		{"catalog-chaos-slot-storm", catalog("chaos-slot-storm"),
			"69160820486a0ea0ca6c4b4984ed5ae5b57514b83b5f560b535959b24d5cf0ae",
			"5969e7112867da19eba5bc5bddff2a519c265afea3f5437484dd13d2440f3615",
			"655d982e390eee7a391911aa01d249d8014da5372c7d6eb226835aecfdcc3fd3"},
		{"chaos-flaky-pr", catalog("chaos-flaky-pr"),
			"36686cbd05ca9e0bc7c1acc9e25736b77f4d53eb22d1d7597de901502979fef6",
			"3ff2bf413088a519e21f9a29c545dcec677fadcb29c99fd6152138f43aa7ecb0",
			"9a1ef48448e04bed0405db978ea92241a96702a8d0155b2402a9379b2570d297"},
		{"chaos-farm-outage", catalog("chaos-farm-outage"),
			"0dd81d8b78e40f11952084164fc370035a063693c399cfb8f1476cef7d15b480",
			"e16ddbf4fcb61007cde6bccbde0367c97a4f1aac61b0436df490bd126599dea9",
			"e5ccdc4d6c5ede1b316f7ea2e692e4f2a7639d4a930f866c598ee49860daf797"},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			lines, events := sha256.New(), sha256.New()
			rec := trace.NewRecorder(0)
			r := versaslot.NewRunner(
				versaslot.WithTrace(func(format string, args ...any) { fmt.Fprintf(lines, format+"\n", args...) }),
				versaslot.WithRecorder(rec),
				versaslot.WithObserver(func(ev versaslot.Event) { fmt.Fprintf(events, "%+v\n", ev) }),
			)
			if _, err := r.Run(c.s); err != nil {
				t.Fatal(err)
			}
			recs := sha256.New()
			rec.WriteLog(recs)
			for _, h := range []struct {
				name      string
				got, want string
			}{
				{"trace", hex.EncodeToString(lines.Sum(nil)), c.trace},
				{"observer", hex.EncodeToString(events.Sum(nil)), c.observer},
				{"recorder", hex.EncodeToString(recs.Sum(nil)), c.recorder},
			} {
				if h.got != h.want {
					t.Errorf("%s hash %s, want %s", h.name, h.got, h.want)
				}
			}
		})
	}
}
