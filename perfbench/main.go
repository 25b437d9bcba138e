// Command perfbench is the VersaSlot simulator's benchmark. One
// operation is one complete run from Scenario to Result through the
// public facade; operations go back to back from one process (a closed
// loop of one client). With --trace 0 it measures the end-to-end
// metrics of untraced runs; with --trace 1 it drives the same
// scenarios through each layer's public functions under spans and a
// CPU profile and reports the per-layer metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fleet-1024 --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. A report with the host block
// and every metric's sample count, median and quartiles is printed
// above it and written, with the trace and profile of --trace 1, under
// .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

const (
	benchDir = "perfbench"
	buildDir = ".bench_build"
)

var endToEndNames = []string{"wall_s", "setup_s", "apps_per_s", "alloc_mb", "heap_allocs", "peak_rss_mb"}

var perLayerNames = []string{
	"facade.validate_s", "facade.merge_s",
	"workload.gen_s", "workload.apps",
	"cluster.build_s", "cluster.inject_s", "cluster.run_s",
	"cluster.dispatches", "cluster.switches", "cluster.cross_migrations",
	"cluster.shards", "cluster.shard_speedup", "cluster.serial_fraction",
	"sim.events", "sim.events_per_s",
	"sched.pr_loads", "sched.pr_blocked", "sched.preemptions", "sched.launch_wait_s",
	"bitstream.cache_hit_ratio",
	"metrics.summarize_s", "metrics.samples_retained",
	"orchestrator.setup_s", "orchestrator.admitted", "orchestrator.rejected",
	"orchestrator.scale_ops", "orchestrator.drain_migrated",
	"fault.attach_s", "fault.events", "fault.pr_retries", "fault.crash_restarted",
	"runtime.gc_cycles", "runtime.gc_pause_s",
	"cpu_share.sim", "cpu_share.sched", "cpu_share.cluster", "cpu_share.metrics",
	"cpu_share.runtime", "cpu_share.other",
	"trace.overhead_pct",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type reportMetric struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type report struct {
	Host      host                    `json:"host"`
	Workload  string                  `json:"workload"`
	Seed      uint64                  `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Trace     int                     `json:"trace"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Errors    []string                `json:"errors,omitempty"`
	Metrics   map[string]reportMetric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name: paper-sweep, fleet-1024 or tenant-chaos")
	seed := flag.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer metrics of the traced path")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	outDir := filepath.Join(buildDir, benchDir)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	b := newBench(w, *seed)
	b.prepare()
	names := endToEndNames
	var metrics map[string]dist
	if *trace == 0 {
		metrics = b.endToEnd(*seconds)
	} else {
		names = perLayerNames
		metrics = b.traced(*seconds, outDir)
	}

	rep := report{
		Host: hostBlock("."), Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Attempted: b.tally.attempted, Failed: b.tally.failed, Errors: b.tally.firstErrs,
		Metrics: make(map[string]reportMetric),
	}
	line := resultLine{Correct: b.tally.correct(), Attempted: b.tally.attempted, Failed: b.tally.failed,
		Metrics: make(map[string]metricValue)}
	h := rep.Host
	fmt.Printf("host num_cpu=%d gomaxprocs=%d os=%s/%s go=%s commit=%s source=%s\n",
		h.NumCPU, h.GOMAXPROCS, h.GOOS, h.GOARCH, h.GoVersion, h.Commit, h.SourceSHA256)
	fmt.Printf("workload %s seed=%d seconds=%g trace=%d attempted=%d failed=%d\n",
		w.name, *seed, *seconds, *trace, b.tally.attempted, b.tally.failed)
	for _, n := range names {
		d, ok := metrics[n]
		if !ok {
			line.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", n)
			continue
		}
		fmt.Printf("metric %-28s %-6s n=%-4d median=%-14.6g q1=%-14.6g q3=%.6g\n", n, d.Unit, d.N, d.Median, d.Q1, d.Q3)
		rep.Metrics[n] = reportMetric{Unit: d.Unit, N: d.N, Median: d.Median, Q1: d.Q1, Q3: d.Q3}
		line.Metrics[n] = metricValue{Value: d.Median, Unit: d.Unit}
	}
	rb, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	reportPath := filepath.Join(outDir, fmt.Sprintf("report-%s-trace%d.json", w.name, *trace))
	if err := os.WriteFile(reportPath, rb, 0o644); err != nil {
		return err
	}
	lb, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(lb))
	return nil
}
