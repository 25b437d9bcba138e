package versaslot_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"versaslot"
	"versaslot/internal/trace"
)

func resultJSON(t *testing.T, r *versaslot.Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

// TestDeterminism: the same Scenario plus seed must produce
// byte-identical Results, on every topology.
func TestDeterminism(t *testing.T) {
	scenarios := []versaslot.Scenario{
		{Name: "single", Policy: "versaslot-bl", Condition: "stress", Apps: 10, Seed: 5},
		{Name: "cluster", Topology: versaslot.TopologyCluster, Condition: "stress", Apps: 16, Seed: 5},
		{Name: "farm", Topology: versaslot.TopologyFarm, Pairs: 2, Condition: "stress", Apps: 16, Seed: 5},
		{Name: "custom", BigSlots: 1, LittleSlots: 6, Condition: "stress", Apps: 10, Seed: 5},
	}
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			first, err := versaslot.Run(sc)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			second, err := versaslot.Run(sc)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			a, b := resultJSON(t, first), resultJSON(t, second)
			if !bytes.Equal(a, b) {
				t.Errorf("results differ between identical runs:\n%s\n%s", a, b)
			}
			if first.Summary.Apps == 0 {
				t.Error("run completed zero apps")
			}
		})
	}
}

func TestRunnerObserver(t *testing.T) {
	var arrivals, finishes int
	runner := versaslot.NewRunner(versaslot.WithObserver(func(ev versaslot.Event) {
		switch ev.Kind {
		case "arrival":
			arrivals++
		case "finish":
			finishes++
		}
	}))
	res, err := runner.Run(versaslot.Scenario{Policy: "fcfs", Condition: "loose", Apps: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if arrivals != 6 || finishes != 6 {
		t.Errorf("observer saw %d arrivals / %d finishes, want 6/6", arrivals, finishes)
	}
	if res.Summary.Apps != 6 {
		t.Errorf("Summary.Apps = %d, want 6", res.Summary.Apps)
	}
}

func TestRunnerObserverCluster(t *testing.T) {
	var finishes, switches int
	runner := versaslot.NewRunner(versaslot.WithObserver(func(ev versaslot.Event) {
		switch ev.Kind {
		case "finish":
			finishes++
		case "switch":
			switches++
		}
	}))
	res, err := runner.Run(versaslot.Scenario{
		Topology: versaslot.TopologyCluster, Condition: "stress", Apps: 20, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if finishes != res.Summary.Apps {
		t.Errorf("observer saw %d finishes, summary has %d apps", finishes, res.Summary.Apps)
	}
	if switches != res.Switches {
		t.Errorf("observer saw %d switches, result has %d", switches, res.Switches)
	}
}

// TestRunnerObserverSwitchingFarm runs a farm whose pairs switch under
// an observer: a pair's spare board is built at its first switch, and
// the observer must already be attached to it then — arrivals and
// finishes after the switch carry the boost board's ID. Observing must
// not change the Result.
func TestRunnerObserverSwitchingFarm(t *testing.T) {
	sc := versaslot.Scenario{Topology: versaslot.TopologyFarm, Pairs: 4, Condition: "real-time", Apps: 48, Seed: 1}
	// switchedAt maps a pair's base board to its boost board once the
	// pair has switched; onBoost counts events seen on a boost board
	// after its pair's first switch.
	switchedAt := map[int]int{}
	onBoost := map[string]int{}
	runner := versaslot.NewRunner(versaslot.WithObserver(func(ev versaslot.Event) {
		switch ev.Kind {
		case "switch":
			if _, ok := switchedAt[ev.Board]; !ok {
				switchedAt[ev.Board] = ev.Board + 1
			}
		case "arrival", "finish":
			if boost, ok := switchedAt[ev.Board-1]; ok && ev.Board == boost {
				onBoost[ev.Kind]++
			}
		}
	}))
	observed, err := runner.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if observed.Switches == 0 || len(switchedAt) == 0 {
		t.Fatalf("no pair switched (%d switches); the test needs a switching farm", observed.Switches)
	}
	if onBoost["arrival"] == 0 || onBoost["finish"] == 0 {
		t.Errorf("after a switch the boost boards reported %d arrivals and %d finishes, want both > 0",
			onBoost["arrival"], onBoost["finish"])
	}
	plain, err := versaslot.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultJSON(t, observed), resultJSON(t, plain); !bytes.Equal(a, b) {
		t.Errorf("observing changed the result:\nobserved %s\nplain    %s", a, b)
	}
}

func TestRunnerTraceAndRecorder(t *testing.T) {
	var lines int
	rec := trace.NewRecorder(0)
	runner := versaslot.NewRunner(
		versaslot.WithTrace(func(format string, args ...any) { lines++ }),
		versaslot.WithRecorder(rec),
	)
	if _, err := runner.Run(versaslot.Scenario{Policy: "nimblock", Condition: "loose", Apps: 3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Error("WithTrace produced no lines")
	}
	if rec.Len() == 0 {
		t.Error("WithRecorder recorded no events")
	}
}

// TestRecorderKeysBoards records a 4-pair round-robin farm, whose
// boards execute on the same slot IDs at once: keyed by board and slot,
// no item may start on a slot that is already executing.
func TestRecorderKeysBoards(t *testing.T) {
	rec := trace.NewRecorder(0)
	s := versaslot.Scenario{Topology: versaslot.TopologyFarm, Pairs: 4, Dispatcher: "round-robin",
		Condition: "stress", Apps: 64, Seed: 3}
	if _, err := versaslot.NewRunner(versaslot.WithRecorder(rec)).Run(s); err != nil {
		t.Fatal(err)
	}
	type key struct{ board, slot int }
	busy := map[key]bool{}
	var starts, overlaps int
	for _, ev := range rec.Events() {
		k := key{ev.Board, ev.Slot}
		switch ev.Kind {
		case trace.ExecStart:
			starts++
			if busy[k] {
				overlaps++
			}
			busy[k] = true
		case trace.ExecDone:
			busy[k] = false
		}
	}
	if starts == 0 || overlaps > 0 {
		t.Errorf("%d of %d item starts landed on a slot already executing", overlaps, starts)
	}
}

func TestWorkloadFileScenario(t *testing.T) {
	dir := t.TempDir()
	seqPath := dir + "/wl.json"
	seqJSON := `{"name":"wl","condition":"Stress","seed":9,"arrivals":[
		{"spec":"3DR","batch":3,"at":0},
		{"spec":"IC","batch":2,"at":1000000000}]}`
	if err := writeFile(seqPath, seqJSON); err != nil {
		t.Fatal(err)
	}
	res, err := versaslot.Run(versaslot.Scenario{Policy: "versaslot-bl", WorkloadFile: seqPath, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Apps != 2 {
		t.Errorf("Summary.Apps = %d, want 2", res.Summary.Apps)
	}
	if res.Condition != "Stress" {
		t.Errorf("Condition = %q, want Stress (from workload file)", res.Condition)
	}
}

func TestRunUnknownPolicyFails(t *testing.T) {
	if _, err := versaslot.Run(versaslot.Scenario{Policy: "bogus"}); err == nil {
		t.Error("Run with unknown policy succeeded")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
