package experiments

import (
	"io"

	"versaslot/internal/report"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// Fig6Paper holds the paper's relative tail response times (normalized
// to Baseline; LOWER is better), Fig. 6. Values read from the figure:
// Big.Little beats Nimblock on P95/P99 everywhere; its P99 sits
// slightly above Baseline's. Keyed by group, then registry name.
var Fig6Paper = map[string]map[string]float64{
	"Std-95":    {"nimblock": 0.65, "versaslot-ol": 0.45, "versaslot-bl": 0.30},
	"Std-99":    {"nimblock": 0.90, "versaslot-ol": 0.70, "versaslot-bl": 0.55},
	"Stress-95": {"nimblock": 0.60, "versaslot-ol": 0.45, "versaslot-bl": 0.33},
	"Stress-99": {"nimblock": 0.75, "versaslot-ol": 0.60, "versaslot-bl": 0.51},
	"RT-95":     {"nimblock": 0.70, "versaslot-ol": 0.52, "versaslot-bl": 0.45},
	"RT-99":     {"nimblock": 0.85, "versaslot-ol": 0.65, "versaslot-bl": 0.57},
}

// Fig6Cell is one bar: a policy's P95 or P99 relative to Baseline's.
type Fig6Cell struct {
	Group    string // "Std-95", "Stress-99", ...
	Policy   string // registry name
	Absolute sim.Duration
	Relative float64 // policy tail / baseline tail (lower is better)
}

// Fig6Result is the tail-latency grid.
type Fig6Result struct {
	Cells []Fig6Cell
}

// Fig6 reproduces "Tail response time normalized to the baseline":
// P95/P99 across Standard, Stress and Real-time conditions, pooled
// over the condition's sequences.
func Fig6(cfg Config) *Fig6Result {
	conditions := []workload.Condition{workload.Standard, workload.Stress, workload.Realtime}
	names := map[workload.Condition]string{
		workload.Standard: "Std", workload.Stress: "Stress", workload.Realtime: "RT",
	}
	grid := runGrid(cfg, conditions, systems)
	out := &Fig6Result{}
	for ci, cond := range conditions {
		for _, pct := range []float64{95, 99} {
			baseTail := pooledPct(grid[ci][0], pct)
			group := names[cond] + "-" + itoa(int(pct))
			for ki, name := range systems {
				tail := pooledPct(grid[ci][ki], pct)
				rel := 0.0
				if baseTail > 0 {
					rel = float64(tail) / float64(baseTail)
				}
				out.Cells = append(out.Cells, Fig6Cell{
					Group:    group,
					Policy:   name,
					Absolute: tail,
					Relative: rel,
				})
			}
		}
	}
	return out
}

// Lookup returns the cell for (group, policy registry name).
func (r *Fig6Result) Lookup(group, name string) Fig6Cell {
	for _, c := range r.Cells {
		if c.Group == group && c.Policy == name {
			return c
		}
	}
	return Fig6Cell{}
}

// Groups lists the six bar groups in the paper's order.
func Fig6Groups() []string {
	return []string{"Std-95", "Std-99", "Stress-95", "Stress-99", "RT-95", "RT-99"}
}

// Table renders the grid.
func (r *Fig6Result) Table() *report.Table {
	headers := append([]string{"System"}, Fig6Groups()...)
	t := report.NewTable(
		"Fig. 6 — Relative tail response time (normalized to Baseline; lower is better)",
		headers...)
	for _, name := range systems {
		vals := []any{title(name)}
		for _, g := range Fig6Groups() {
			vals = append(vals, r.Lookup(g, name).Relative)
		}
		t.AddRow(vals...)
	}
	return t
}

// Write renders the table to w.
func (r *Fig6Result) Write(w io.Writer) { r.Table().Render(w) }

func itoa(v int) string {
	if v == 95 {
		return "95"
	}
	if v == 99 {
		return "99"
	}
	// Only the two tails are used; keep a safe fallback.
	digits := []byte{}
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	if len(digits) == 0 {
		return "0"
	}
	return string(digits)
}
