package experiments

import (
	"io"

	"versaslot"
	"versaslot/internal/report"
	"versaslot/internal/sched"
	"versaslot/internal/workload"
)

// UtilizationResult complements Fig. 7's static (implementation-level)
// measurement with a dynamic one: the time-averaged LUT/FF utilization
// of the boards' slot area during actual scheduling runs. The paper's
// headline "enhances the LUT and FF resource utilization" is ultimately
// about this quantity — resident circuits doing useful work instead of
// slots idling through PR contention.
type UtilizationResult struct {
	// Per-system time-averaged utilization, pooled over sequences.
	Rows []UtilizationRow
}

// UtilizationRow is one scheduling system's dynamic utilization.
type UtilizationRow struct {
	Policy  sched.Kind
	LUT, FF float64 // resident time-averaged utilization
	BusyLUT float64 // actively-executing share
	PRLoads uint64
}

// MeasureUtilization runs the sharing systems on a stress workload set
// and reports dynamic utilization. The Baseline is excluded: its
// monolithic virtual regions have no meaningful slot-area denominator.
func MeasureUtilization(cfg Config) *UtilizationResult {
	kinds := []sched.Kind{
		sched.KindFCFS, sched.KindRR, sched.KindNimblock,
		sched.KindVersaSlotOL, sched.KindVersaSlotBL,
	}
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = cfg.Apps
	seqs := make([]*workload.Sequence, cfg.Sequences)
	for i := range seqs {
		seqs[i] = workload.Generate(p, cfg.BaseSeed+uint64(i))
	}

	var scenarios []versaslot.Scenario
	for _, kind := range kinds {
		for si := range seqs {
			scenarios = append(scenarios, versaslot.Scenario{
				Policy:   sched.NameOf(kind),
				Workload: seqs[si],
				Seed:     cfg.BaseSeed + uint64(si),
			})
		}
	}
	results, err := versaslot.RunMany(scenarios, cfg.workers())
	if err != nil {
		panic(err)
	}

	rows := make([]UtilizationRow, len(kinds))
	for ki, kind := range kinds {
		row := UtilizationRow{Policy: kind}
		for si := range seqs {
			res := results[ki*len(seqs)+si]
			row.LUT += res.Summary.UtilLUT
			row.FF += res.Summary.UtilFF
			row.PRLoads += res.Summary.PRLoads
		}
		n := float64(len(seqs))
		row.LUT /= n
		row.FF /= n
		row.PRLoads /= uint64(len(seqs))
		rows[ki] = row
	}
	return &UtilizationResult{Rows: rows}
}

// Table renders the dynamic utilization comparison.
func (r *UtilizationResult) Table() *report.Table {
	t := report.NewTable(
		"Dynamic slot-area utilization during stress runs (time-averaged)",
		"System", "LUT util", "FF util", "PR loads/seq")
	for _, row := range r.Rows {
		t.AddRow(row.Policy.String(), row.LUT, row.FF, row.PRLoads)
	}
	return t
}

// Write renders the table.
func (r *UtilizationResult) Write(w io.Writer) { r.Table().Render(w) }

// Gain returns BL's relative LUT and FF utilization gain over OL,
// time-averaged over whole stress runs. It is not the paper's
// +35%/+29%: that is Fig. 7's per-task gain from 3-in-1 bundling
// (experiments.Fig7). Over a run BL measures below OL (at -quick
// scale, LUT -22.0% and FF -20.7%).
func (r *UtilizationResult) Gain() (lutPct, ffPct float64) {
	var ol, bl UtilizationRow
	for _, row := range r.Rows {
		if row.Policy == sched.KindVersaSlotOL {
			ol = row
		}
		if row.Policy == sched.KindVersaSlotBL {
			bl = row
		}
	}
	if ol.LUT > 0 {
		lutPct = (bl.LUT/ol.LUT - 1) * 100
	}
	if ol.FF > 0 {
		ffPct = (bl.FF/ol.FF - 1) * 100
	}
	return lutPct, ffPct
}
