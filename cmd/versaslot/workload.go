package main

import (
	"flag"
	"fmt"
	"os"

	"versaslot"
	"versaslot/internal/report"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

const workloadUsage = `usage:
  versaslot workload gen  [-condition standard] [-apps 20] [-seed 1]
                          [-arrival poisson] [-arrival-json '{...}'] [-o file.json]
  versaslot workload show file.json`

// runWorkload generates a workload sequence file (gen) or prints one as
// a table (show).
func runWorkload(args []string) {
	switch {
	case len(args) > 0 && args[0] == "gen":
		genWorkload(args[1:])
	case len(args) == 2 && args[0] == "show":
		showWorkload(args[1])
	default:
		fmt.Fprintln(os.Stderr, workloadUsage)
		os.Exit(2)
	}
}

// genWorkload resolves the sequence exactly as a scenario with the same
// condition, app count, seed and arrival block would, and writes it as
// JSON.
func genWorkload(args []string) {
	fs := flag.NewFlagSet("workload gen", flag.ExitOnError)
	condition := fs.String("condition", "standard", "loose|standard|stress|real-time")
	apps := fs.Int("apps", 20, "applications in the sequence")
	seed := fs.Uint64("seed", 1, "generator seed")
	arrival := fs.String("arrival", "", "registered arrival process (rates default from -condition)")
	arrivalJSON := fs.String("arrival-json", "", "inline arrival-spec JSON (overrides -arrival)")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)

	sc := versaslot.Scenario{
		Condition: *condition,
		Apps:      *apps,
		Seed:      *seed,
		Arrival:   parseArrivalFlags(*arrival, *arrivalJSON),
	}
	seq, err := sc.Sequence()
	if err != nil {
		fatalf("workload gen: %v", err)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("workload gen: %v", err)
		}
		defer f.Close()
		w = f
	}
	if err := seq.WriteJSON(w); err != nil {
		fatalf("workload gen: %v", err)
	}
}

func showWorkload(path string) {
	seq, err := versaslot.Scenario{WorkloadFile: path}.Sequence()
	if err != nil {
		fatalf("workload show: %v", err)
	}
	t := report.NewTable(
		fmt.Sprintf("%s (%s, seed %d, %d apps)", seq.Name, seq.Condition, seq.Seed, len(seq.Arrivals)),
		"#", "Spec", "Tasks", "Batch", "Arrival (s)")
	for i, a := range seq.Arrivals {
		spec := workload.SpecByName(a.Spec)
		t.AddRow(i, a.Spec, spec.TaskCount(), a.Batch, sim.Time(a.At).Seconds())
	}
	t.Render(os.Stdout)
}
