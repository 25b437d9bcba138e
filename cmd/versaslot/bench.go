package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"versaslot/internal/experiments"
	"versaslot/internal/report"
	"versaslot/internal/workload"
)

// runBench regenerates the paper's evaluation figures and writes
// paper-vs-measured tables to w; -csv also writes each table as CSV.
func runBench(w io.Writer, args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced scale (3 sequences x 10 apps)")
	fig := fs.String("fig", "all", "which figure to regenerate: 2, 5, 6, 7, 8, sweep, util, or all")
	seqs := fs.Int("seqs", 0, "override sequences per condition")
	apps := fs.Int("apps", 0, "override apps per sequence")
	csvDir := fs.String("csv", "", "also write tables as CSV into this directory")
	fs.Parse(args)

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *seqs > 0 {
		cfg.Sequences = *seqs
	}
	if *apps > 0 {
		cfg.Apps = *apps
	}

	var tables []*report.Table
	run := func(name string) bool { return *fig == "all" || *fig == name }

	if run("2") {
		fmt.Fprintln(w, "Running Fig. 2 (PR contention mechanism)...")
		r := experiments.Fig2()
		r.Write(w)
		fmt.Fprintln(w)
		tables = append(tables, r.Table())
	}
	if run("5") {
		fmt.Fprintln(w, "Running Fig. 5 (response time reduction)...")
		r := experiments.Fig5(cfg)
		r.Write(w)
		fmt.Fprintln(w)
		tables = append(tables, r.Table())
	}
	if run("6") {
		fmt.Fprintln(w, "Running Fig. 6 (tail latency)...")
		r := experiments.Fig6(cfg)
		r.Write(w)
		fmt.Fprintln(w)
		tables = append(tables, r.Table())
	}
	if run("7") {
		fmt.Fprintln(w, "Running Fig. 7 (3-in-1 utilization)...")
		r := experiments.Fig7()
		r.Write(w)
		fmt.Fprintf(w, "  Average increase: LUT %.1f%%  FF %.1f%%  (paper: ~35%% / ~29%%)\n",
			r.AvgLUTPct, r.AvgFFPct)
		fmt.Fprintf(w, "  Not bundleable (absent from Fig. 7): %v\n\n", r.NotBundleable)
		tables = append(tables, r.Table(), r.DetailTable())
	}
	if run("8") {
		fmt.Fprintln(w, "Running Fig. 8 (cross-board switching)...")
		f8 := experiments.DefaultFig8()
		if *quick {
			f8 = experiments.QuickFig8()
		}
		r := experiments.Fig8(f8)
		r.Write(w)
		fmt.Fprintln(w)
		tables = append(tables, r.Table(), r.TraceTable())
	}
	if run("util") {
		fmt.Fprintln(w, "Running dynamic utilization measurement...")
		r := experiments.MeasureUtilization(cfg)
		r.Write(w)
		lut, ff := r.Gain()
		fmt.Fprintf(w, "  Big.Little vs Only.Little during execution: LUT %+.1f%%  FF %+.1f%%\n\n", lut, ff)
		tables = append(tables, r.Table())
	}
	if run("sweep") {
		fmt.Fprintln(w, "Running slot-configuration sweep (extension)...")
		r := experiments.SlotSweep(cfg, workload.Stress)
		experiments.WriteSweep(w, r, workload.Stress)
		fmt.Fprintln(w)
		tables = append(tables, experiments.SweepTable(r, workload.Stress))
	}

	if *csvDir == "" {
		return
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		fatalf("bench: %v", err)
	}
	for i, t := range tables {
		var buf bytes.Buffer
		t.WriteCSV(&buf) // a buffer write cannot fail
		if err := os.WriteFile(filepath.Join(*csvDir, fmt.Sprintf("table%02d.csv", i)), buf.Bytes(), 0o644); err != nil {
			fatalf("bench: %v", err)
		}
	}
	fmt.Fprintf(w, "CSV tables written to %s\n", *csvDir)
}
