package experiments

import (
	"strings"
	"testing"
)

// TestFig2Mechanism asserts the paper's Fig. 2 story quantitatively.
func TestFig2Mechanism(t *testing.T) {
	r := Fig2()
	if len(r.Rows) != 3 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	byName := map[string]Fig2Row{}
	for _, row := range r.Rows {
		byName[row.Policy] = row
	}
	nim := byName["nimblock"]
	ol := byName["versaslot-ol"]
	bl := byName["versaslot-bl"]

	// Single-core Nimblock suffers launch blocking; dual-core VersaSlot
	// all but eliminates it (the paper's task-execution-blocking claim).
	if nim.LaunchWaitMS <= 10*ol.LaunchWaitMS && nim.LaunchWaitMS < 1 {
		t.Errorf("no single-core launch blocking visible: nim=%.2fms ol=%.2fms",
			nim.LaunchWaitMS, ol.LaunchWaitMS)
	}
	if ol.LaunchWaitMS > 1 {
		t.Errorf("dual-core OL still shows launch blocking: %.2fms", ol.LaunchWaitMS)
	}
	// Bundling collapses the PR count (two 3-task apps: 6 loads -> 2).
	if bl.PRLoads >= nim.PRLoads {
		t.Errorf("BL loads %d not below Nimblock's %d", bl.PRLoads, nim.PRLoads)
	}
	// And the makespan ordering follows.
	if !(bl.MakespanMS < ol.MakespanMS && ol.MakespanMS < nim.MakespanMS) {
		t.Errorf("makespan ordering broken: nim=%.1f ol=%.1f bl=%.1f",
			nim.MakespanMS, ol.MakespanMS, bl.MakespanMS)
	}
	// Timelines render.
	var b strings.Builder
	r.Write(&b)
	if !strings.Contains(b.String(), "timeline:") {
		t.Fatal("timelines missing from output")
	}
}
