package experiments

import (
	"io"

	"versaslot"
	"versaslot/internal/report"
	"versaslot/internal/sim"
	"versaslot/internal/trace"
	"versaslot/internal/workload"
)

// Fig2Result quantifies the mechanism schematic of the paper's Fig. 2:
// two applications sharing one FPGA, comparing how much PR contention
// and execution blocking each control-plane design suffers.
type Fig2Result struct {
	Rows []Fig2Row
	// Recorders hold the per-system event recordings for timeline
	// rendering, keyed by registry name.
	Recorders map[string]*trace.Recorder
}

// Fig2Row is one system's measurement.
type Fig2Row struct {
	Policy string // registry name
	// MakespanMS: when the last of the two apps finished.
	MakespanMS float64
	// PRLoads and PRBlocked: total loads and loads queued behind another.
	PRLoads, PRBlocked uint64
	// PRWaitMS: cumulative time PR requests waited on the serial PCAP.
	PRWaitMS float64
	// LaunchWaitMS: cumulative time item launches waited on the CPU —
	// the task-execution-blocking effect of single-core designs.
	LaunchWaitMS float64
}

// Fig2 reproduces the paper's Fig. 2 scenario quantitatively: App-1
// (3 tasks, batch 3) and App-2 (3 tasks, batch 2) arrive back to back
// and share one board under Nimblock (single core), VersaSlot
// Only.Little (dual core) and VersaSlot Big.Little. The single-core
// system shows PR contention and launch blocking; the dual-core one
// eliminates launch blocking; Big.Little also collapses the PR count.
func Fig2() *Fig2Result {
	// The paper's Fig. 2 apps: two 3-task applications with batch
	// sizes 3 and 2. 3DR is the suite's 3-task app.
	seq := &workload.Sequence{
		Name:      "fig2",
		Condition: "Fig2",
		Arrivals: []workload.Arrival{
			{Spec: workload.ThreeDR.Name, Batch: 3, At: 0},
			{Spec: workload.ThreeDR.Name, Batch: 2, At: 5 * sim.Millisecond},
		},
	}
	out := &Fig2Result{Recorders: make(map[string]*trace.Recorder)}
	for _, name := range []string{"nimblock", "versaslot-ol", "versaslot-bl"} {
		rec := trace.NewRecorder(0)
		res, err := versaslot.NewRunner(versaslot.WithRecorder(rec)).Run(versaslot.Scenario{
			Policy:   name,
			Workload: seq,
			Seed:     1,
		})
		if err != nil {
			panic(err)
		}
		out.Rows = append(out.Rows, Fig2Row{
			Policy:       name,
			MakespanMS:   res.Makespan.Milliseconds(),
			PRLoads:      res.Summary.PRLoads,
			PRBlocked:    res.Summary.PRBlocked,
			PRWaitMS:     res.Summary.PRWait.Seconds() * 1000,
			LaunchWaitMS: res.LaunchWait.Seconds() * 1000,
		})
		out.Recorders[name] = rec
	}
	return out
}

// Table renders the mechanism comparison.
func (r *Fig2Result) Table() *report.Table {
	t := report.NewTable(
		"Fig. 2 (mechanism) — two 3-task apps sharing one FPGA",
		"System", "Makespan (ms)", "PR loads", "PR blocked", "PR wait (ms)", "Launch wait (ms)")
	for _, row := range r.Rows {
		t.AddRow(title(row.Policy), row.MakespanMS, row.PRLoads, row.PRBlocked,
			row.PRWaitMS, row.LaunchWaitMS)
	}
	return t
}

// Write renders the table and per-system timelines.
func (r *Fig2Result) Write(w io.Writer) {
	r.Table().Render(w)
	for _, row := range r.Rows {
		if rec := r.Recorders[row.Policy]; rec != nil {
			io.WriteString(w, "\n"+title(row.Policy)+":\n")
			trace.Timeline{Buckets: 100}.Render(w, rec)
		}
	}
}
