package experiments

import (
	"fmt"
	"io"

	"versaslot/internal/metrics"
	"versaslot/internal/report"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// Fig5Paper holds the paper's reported relative response-time
// reductions (normalized to Baseline = 1.0), Fig. 5, keyed by registry
// name.
var Fig5Paper = map[workload.Condition]map[string]float64{
	workload.Loose: {
		"fcfs": 0.81, "rr": 0.79, "nimblock": 1.06,
		"versaslot-ol": 1.08, "versaslot-bl": 1.49,
	},
	workload.Standard: {
		"fcfs": 1.57, "rr": 1.80, "nimblock": 6.23,
		"versaslot-ol": 8.39, "versaslot-bl": 13.66,
	},
	workload.Stress: {
		"fcfs": 1.47, "rr": 1.47, "nimblock": 3.04,
		"versaslot-ol": 4.13, "versaslot-bl": 5.23,
	},
	workload.Realtime: {
		"fcfs": 1.45, "rr": 1.46, "nimblock": 2.91,
		"versaslot-ol": 3.84, "versaslot-bl": 4.76,
	},
}

// Fig5Cell is one bar of Fig. 5.
type Fig5Cell struct {
	Condition workload.Condition
	Policy    string // registry name
	// MeanRT is this system's average response time across sequences;
	// RTStd is the cross-sequence standard deviation.
	MeanRT sim.Duration
	RTStd  sim.Duration
	// Reduction is baselineMeanRT / MeanRT (higher is better).
	Reduction float64
	// Paper is the value reported in the paper (0 for Baseline).
	Paper float64
}

// Fig5Result is the full grid.
type Fig5Result struct {
	Cells []Fig5Cell
	// BaselineRT per condition, the normalization denominator.
	BaselineRT map[workload.Condition]sim.Duration
}

// Fig5 reproduces "Relative response time reduction under different
// congestion conditions, normalized to the baseline".
func Fig5(cfg Config) *Fig5Result {
	conditions := workload.Conditions()
	grid := runGrid(cfg, conditions, systems)
	out := &Fig5Result{BaselineRT: make(map[workload.Condition]sim.Duration)}
	for ci, cond := range conditions {
		baseRT := meanOver(grid[ci][0])
		out.BaselineRT[cond] = baseRT
		for ki, name := range systems {
			perSeq := make([]float64, 0, len(grid[ci][ki]))
			for _, res := range grid[ci][ki] {
				perSeq = append(perSeq, float64(res.Summary.MeanRT))
			}
			mean, std := metrics.MeanStd(perSeq)
			red := 0.0
			if mean > 0 {
				red = float64(baseRT) / mean
			}
			out.Cells = append(out.Cells, Fig5Cell{
				Condition: cond,
				Policy:    name,
				MeanRT:    sim.Duration(mean),
				RTStd:     sim.Duration(std),
				Reduction: red,
				Paper:     Fig5Paper[cond][name],
			})
		}
	}
	return out
}

// Lookup returns the cell for (condition, policy registry name).
func (r *Fig5Result) Lookup(c workload.Condition, name string) Fig5Cell {
	for _, cell := range r.Cells {
		if cell.Condition == c && cell.Policy == name {
			return cell
		}
	}
	return Fig5Cell{}
}

// Table renders the paper-style grid.
func (r *Fig5Result) Table() *report.Table {
	t := report.NewTable(
		"Fig. 5 — Average relative response time reduction (normalized to Baseline; higher is better)",
		"System", "Loose", "Standard", "Stress", "Real-time", "Paper(L/S/St/RT)")
	for _, name := range systems {
		var vals []any
		vals = append(vals, title(name))
		var paper string
		for _, c := range workload.Conditions() {
			cell := r.Lookup(c, name)
			vals = append(vals, cell.Reduction)
			if paper != "" {
				paper += "/"
			}
			if name == "baseline" {
				paper += "1.00"
			} else {
				paper += trim2(Fig5Paper[c][name])
			}
		}
		vals = append(vals, paper)
		t.AddRow(vals...)
	}
	return t
}

// RTTable renders the absolute mean response times behind the ratios.
func (r *Fig5Result) RTTable() *report.Table {
	t := report.NewTable(
		"Mean response times, seconds (mean +/- cross-sequence std dev)",
		"System", "Loose", "Standard", "Stress", "Real-time")
	for _, name := range systems {
		vals := []any{title(name)}
		for _, c := range workload.Conditions() {
			cell := r.Lookup(c, name)
			vals = append(vals, fmt.Sprintf("%.2f +/- %.2f",
				sim.Time(cell.MeanRT).Seconds(), sim.Time(cell.RTStd).Seconds()))
		}
		t.AddRow(vals...)
	}
	return t
}

// Write renders the tables to w.
func (r *Fig5Result) Write(w io.Writer) {
	r.Table().Render(w)
	r.RTTable().Render(w)
}

func trim2(v float64) string { return fmt.Sprintf("%.2f", v) }
