package experiments

import (
	"testing"

	"versaslot/internal/workload"
)

func TestSlotSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Quick()
	cfg.Sequences = 2
	cfg.Apps = 10
	results := SlotSweep(cfg, workload.Stress)
	if len(results) != 4 {
		t.Fatalf("sweep returned %d mixes", len(results))
	}
	for _, r := range results {
		if r.MeanRT <= 0 {
			t.Fatalf("%v: non-positive mean RT", r.Mix)
		}
		if r.PRLoads == 0 {
			t.Fatalf("%v: no PR loads", r.Mix)
		}
	}
	// More Big slots -> fewer PR loads (bundling's direct effect).
	if results[0].PRLoads <= results[2].PRLoads {
		t.Errorf("0B+8L loads (%d) not above 2B+4L loads (%d)",
			results[0].PRLoads, results[2].PRLoads)
	}
	if SweepTable(results, workload.Stress).String() == "" {
		t.Fatal("sweep table empty")
	}
}

func TestMeasureUtilization(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Quick()
	cfg.Sequences = 2
	cfg.Apps = 12
	r := MeasureUtilization(cfg)
	if len(r.Rows) != 5 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	byPolicy := map[string]UtilizationRow{}
	for _, row := range r.Rows {
		if row.LUT <= 0 || row.LUT > 1 || row.FF <= 0 || row.FF > 1 {
			t.Fatalf("%s utilization out of range: %+v", row.Policy, row)
		}
		byPolicy[row.Policy] = row
	}
	// Pipelined ILP-sized systems keep circuits resident far more than
	// gang-scheduled naive systems.
	if byPolicy["versaslot-ol"].LUT <= byPolicy["fcfs"].LUT {
		t.Error("VersaSlot utilization not above FCFS's")
	}
	// Bundling cuts PR loads.
	if byPolicy["versaslot-bl"].PRLoads >= byPolicy["versaslot-ol"].PRLoads {
		t.Error("BL PR loads not below OL's")
	}
	if r.Table().String() == "" {
		t.Fatal("empty table")
	}
}
