// Command versaslot runs one scheduling scenario: a topology, a
// policy, a congestion condition (or a workload file), an arrival
// process, and a seed, printing the run summary the paper's metrics
// are built from. Any run is reproducible from a JSON scenario
// artifact. -trace prints the run's first board events as they happen
// and -timeline a per-slot Gantt view of them (the textual equivalent
// of the paper's Fig. 2 schematics). The suite subcommand runs a whole
// catalog of them, bench regenerates the paper's evaluation figures,
// and workload generates and prints workload sequence files.
//
// Usage:
//
//	versaslot [-scenario file.json] [-topology single|cluster|farm]
//	          [-policy versaslot-bl] [-platform u250-quad]
//	          [-condition standard] [-apps 20]
//	          [-seed 1] [-workload file.json] [-arrival mmpp]
//	          [-arrival-json '{"process":"mmpp",...}'] [-pairs 2]
//	          [-pair-platforms base:boost,base:boost,...]
//	          [-dispatcher least-loaded] [-rebalance-every 2s]
//	          [-rebalance-gap 2]
//	          [-tenants '[{"name":"batch","quota":4},...]']
//	          [-autoscale '{"min":1,"max":4}'] [-fault slot-fail]
//	          [-fault-json '{"injectors":[...]}']
//	          [-stream] [-window 10s] [-max-windows 64]
//	          [-timeseries-csv windows.csv]
//	          [-cpuprofile cpu.out] [-memprofile mem.out]
//	          [-blockprofile block.out] [-mutexprofile mutex.out]
//	          [-dump-scenario file.json] [-trace N] [-timeline] [-v]
//	versaslot suite [-dir scenarios] [-out report.md] [-apps-cap N]
//	versaslot bench [-quick] [-fig 2|5|6|7|8|sweep|util|all] [-seqs N]
//	                [-apps N] [-csv dir]
//	versaslot workload gen [-condition standard] [-apps 20] [-seed 1]
//	                       [-arrival poisson] [-arrival-json '{...}']
//	                       [-o file.json]
//	versaslot workload show file.json
//	versaslot -policy list
//	versaslot -platform list
//	versaslot -dispatcher list
//	versaslot -arrival list
//	versaslot -fault list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"versaslot"
	"versaslot/internal/cluster"
	"versaslot/internal/fabric"
	"versaslot/internal/fault"
	"versaslot/internal/metrics"
	"versaslot/internal/orchestrator"
	"versaslot/internal/report"
	"versaslot/internal/sim"
	"versaslot/internal/trace"
	"versaslot/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "suite":
			runSuite(os.Args[2:])
			return
		case "bench":
			runBench(os.Stdout, os.Args[2:])
			return
		case "workload":
			runWorkload(os.Args[2:])
			return
		}
	}
	scenarioFile := flag.String("scenario", "", "JSON scenario file (overrides all other flags)")
	topology := flag.String("topology", "single", "system shape: single|cluster|farm")
	policy := flag.String("policy", "versaslot-bl", "registered policy name, or 'list' to print the registry")
	condition := flag.String("condition", "standard", "congestion condition: loose|standard|stress|real-time")
	apps := flag.Int("apps", 20, "applications in the generated sequence")
	seed := flag.Uint64("seed", 1, "workload and simulation seed")
	file := flag.String("workload", "", "JSON workload file (overrides -condition/-apps)")
	arrival := flag.String("arrival", "", "registered arrival process (rates default from -condition), or 'list' to print the registry")
	arrivalJSON := flag.String("arrival-json", "", "inline arrival-spec JSON (overrides -arrival)")
	platform := flag.String("platform", "", "registered board platform (single topology; default: the policy's), or 'list' to print the registry")
	pairPlatforms := flag.String("pair-platforms", "", "per-pair platform assignments base:boost[,base:boost...] (cluster/farm topology)")
	pairs := flag.Int("pairs", 2, "switching pairs (farm topology)")
	dispatcher := flag.String("dispatcher", "", "farm arrival dispatcher (default least-loaded), or 'list' to print the registry")
	rebalanceEvery := flag.Duration("rebalance-every", 0, "farm rebalancer cadence in virtual time (0 disables)")
	rebalanceGap := flag.Int("rebalance-gap", 0, "min unfinished-app gap between pairs that triggers a cross-pair migration (default 2)")
	tenantsJSON := flag.String("tenants", "", "inline tenant-spec JSON array (farm topology): per-tenant arrival process, quota, priority, over-quota policy, SLO")
	autoscaleJSON := flag.String("autoscale", "", "inline autoscale-spec JSON (farm topology): {\"min\":1,\"max\":4,...}; -pairs is the initial online count")
	faultKind := flag.String("fault", "", "attach one fault injector by kind with default parameters, or 'list' to print the registry")
	faultJSON := flag.String("fault-json", "", "inline fault-spec JSON (overrides -fault)")
	stream := flag.Bool("stream", false, "use the bounded-memory streaming metrics pipeline (sketch percentiles + windowed time-series)")
	window := flag.Duration("window", 0, "streaming time-series window length in virtual time (implies -stream; 0 = 10s default)")
	maxWindows := flag.Int("max-windows", 0, "streaming time-series ring size before rollover (implies -stream; 0 = 64 default)")
	timeseriesCSV := flag.String("timeseries-csv", "", "write the streaming time-series as CSV to this file (implies -stream)")
	dump := flag.String("dump-scenario", "", "also write the effective scenario JSON to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a post-run heap profile to this file")
	blockprofile := flag.String("blockprofile", "", "write a goroutine blocking profile to this file (diagnoses RunMany and sweep worker-pool stalls)")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex contention profile to this file")
	traceLines := flag.Int("trace", 0, "print the first N board event lines (PR, item, app and fault events) as the run makes them")
	timeline := flag.Bool("timeline", false, "print a per-slot Gantt timeline of the run and its event counts")
	verbose := flag.Bool("v", false, "print per-application response times")
	flag.Parse()

	switch {
	case *policy == "list":
		printRegistry("policies", versaslot.Policies(), versaslot.PolicyTitle)
		return
	case *dispatcher == "list":
		printRegistry("dispatchers", versaslot.Dispatchers(), versaslot.DispatcherTitle)
		return
	case *arrival == "list":
		printRegistry("arrival processes", versaslot.ArrivalProcesses(), versaslot.ArrivalProcessTitle)
		return
	case *faultKind == "list":
		printRegistry("fault injectors", versaslot.FaultInjectors(), versaslot.FaultInjectorTitle)
		return
	}
	if *platform == "list" {
		fmt.Println("registered platforms:")
		for _, name := range versaslot.Platforms() {
			p, _ := fabric.LookupPlatform(name)
			var classes []string
			for i, c := range p.Classes {
				classes = append(classes, fmt.Sprintf("%dx %s (%d LUT)", p.Counts[i], c.Name, c.Cap.LUT))
			}
			kind := ""
			if p.Virtual {
				kind = " [virtual]"
			}
			fmt.Printf("  %-20s %-12s %s%s\n", name, p.Title, strings.Join(classes, " + "), kind)
		}
		return
	}

	var sc versaslot.Scenario
	if *scenarioFile != "" {
		var err error
		sc, err = versaslot.LoadScenario(*scenarioFile)
		if err != nil {
			exitErr(1, err)
		}
	} else {
		sc = versaslot.Scenario{
			Topology:       versaslot.Topology(*topology),
			Policy:         *policy,
			Condition:      *condition,
			Apps:           *apps,
			Seed:           *seed,
			WorkloadFile:   *file,
			Arrival:        parseArrivalFlags(*arrival, *arrivalJSON),
			Pairs:          *pairs,
			PairPlatforms:  parsePairPlatforms(*pairPlatforms),
			Dispatcher:     *dispatcher,
			RebalanceEvery: *rebalanceEvery,
			RebalanceGap:   *rebalanceGap,
			Tenants:        parseJSONFlag[[]orchestrator.TenantSpec]("tenants", *tenantsJSON),
			Autoscale:      parseJSONFlag[*orchestrator.AutoscaleSpec]("autoscale", *autoscaleJSON),
			Faults:         parseFaultFlags(*faultKind, *faultJSON),
			Metrics:        parseMetricsFlags(*stream, *window, *maxWindows, *timeseriesCSV != ""),
		}
		if *platform != "" {
			sc.Platform = &fabric.PlatformSpec{Ref: *platform}
			policySet := false
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "policy" {
					policySet = true
				}
			})
			if sc.Topology == versaslot.TopologySingle && !policySet {
				// -policy was left at its versaslot-bl default; let the
				// platform shape pick the matching policy. An explicit
				// -policy stands (and fails validation if incompatible).
				sc.Policy = ""
			}
		}
		if err := sc.Validate(); err != nil {
			exitErr(2, err)
		}
	}

	if *dump != "" {
		if err := versaslot.SaveScenario(*dump, sc); err != nil {
			exitErr(1, err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "versaslot: -cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "versaslot: -cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *blockprofile != "" {
		runtime.SetBlockProfileRate(1)
	}
	if *mutexprofile != "" {
		runtime.SetMutexProfileFraction(1)
	}

	var opts []versaslot.Option
	if n := *traceLines; n > 0 {
		opts = append(opts, versaslot.WithTrace(func(format string, args ...any) {
			if n > 0 {
				n--
				fmt.Printf(format+"\n", args...)
			}
		}))
	}
	rec := trace.NewRecorder(0)
	if *timeline {
		opts = append(opts, versaslot.WithRecorder(rec))
	}
	res, err := versaslot.NewRunner(opts...).Run(sc)
	if err != nil {
		exitErr(1, err)
	}
	if *timeline {
		trace.Timeline{Buckets: 110}.Render(os.Stdout, rec)
		rec.Summarize(os.Stdout)
	}

	if *blockprofile != "" {
		writeRuntimeProfile("block", *blockprofile)
	}
	if *mutexprofile != "" {
		writeRuntimeProfile("mutex", *mutexprofile)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "versaslot: -memprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained allocations
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "versaslot: -memprofile:", err)
			os.Exit(1)
		}
	}

	s := res.Summary
	t := report.NewTable(fmt.Sprintf("%s on %s (%s, %d apps)",
		res.PolicyTitle, res.Condition, res.Topology, s.Apps),
		"Metric", "Value")
	t.AddRow("mean response", sim.Time(s.MeanRT).Seconds())
	t.AddRow("p50", sim.Time(s.P50).Seconds())
	t.AddRow("p95", sim.Time(s.P95).Seconds())
	t.AddRow("p99", sim.Time(s.P99).Seconds())
	t.AddRow("mean queue delay", sim.Time(s.MeanQueue).Seconds())
	t.AddRow("max", sim.Time(s.MaxRT).Seconds())
	t.AddRow("LUT utilization", s.UtilLUT)
	t.AddRow("FF utilization", s.UtilFF)
	t.AddRow("DSP utilization", s.UtilDSP)
	t.AddRow("BRAM utilization", s.UtilBRAM)
	t.AddRow("PR loads", s.PRLoads)
	t.AddRow("PR blocked", s.PRBlocked)
	t.AddRow("PR wait total", s.PRWait.String())
	t.AddRow("preemptions", s.Preemptions)
	t.AddRow("cache hit/miss", fmt.Sprintf("%d/%d", res.CacheHits, res.CacheMisses))
	if res.MetricsMode != "" {
		t.AddRow("metrics mode", res.MetricsMode)
	}
	if sc.Faults != nil && sc.Faults.Enabled() {
		t.AddRow("availability", s.Availability)
		t.AddRow("downtime", s.Downtime.String())
		t.AddRow("fault events", s.FaultEvents)
		t.AddRow("crash-restarted apps", s.FailedApps)
		t.AddRow("PR-retried apps", s.RetriedApps)
	}
	if res.Topology != versaslot.TopologySingle {
		t.AddRow("cross-board switches", res.Switches)
		t.AddRow("mean switch overhead", res.MeanSwitchTime.String())
		t.AddRow("migrated apps", res.MigratedApps)
	}
	if res.Topology == versaslot.TopologyFarm {
		t.AddRow("dispatcher", res.Dispatcher)
		t.AddRow("arrivals per pair", fmt.Sprintf("%v", res.Routed))
		t.AddRow("cross-pair migrations", res.CrossMigrations)
		t.AddRow("cross-pair migrated apps", res.CrossMigratedApps)
		t.AddRow("mean cross-pair overhead", res.MeanCrossTime.String())
	}
	t.Render(os.Stdout)

	if len(res.PairStats) > 0 {
		pt := report.NewTable("Per-pair breakdown",
			"Pair", "Routed", "Apps", "Mean RT (s)", "P50 (s)", "LUT util", "Switches", "In", "Out")
		for _, ps := range res.PairStats {
			pt.AddRow(ps.Pair, ps.Routed, ps.Apps,
				sim.Time(ps.MeanRT).Seconds(), sim.Time(ps.P50).Seconds(),
				ps.UtilLUT, ps.Switches, ps.MigratedIn, ps.MigratedOut)
		}
		pt.Render(os.Stdout)
	}

	if len(res.Tenants) > 0 {
		tt := report.NewTable("Per-tenant admission and SLO attainment",
			"Tenant", "Quota", "Submitted", "Admitted", "Rejected", "Throttled", "Finished", "Mean RT (s)", "P99 (s)", "SLO att")
		for _, st := range res.Tenants {
			slo := "-"
			if st.SLO > 0 && st.Finished > 0 {
				slo = fmt.Sprintf("%.3f", st.SLOAttainment)
			}
			tt.AddRow(st.Tenant, st.Quota, st.Submitted, st.Admitted, st.Rejected, st.Throttled,
				st.Finished, sim.Time(st.MeanRT).Seconds(), sim.Time(st.P99).Seconds(), slo)
		}
		tt.Render(os.Stdout)
	}

	if res.Autoscale != nil {
		at := report.NewTable("Autoscaler", "Metric", "Value")
		at.AddRow("scale-ups", res.Autoscale.ScaleUps)
		at.AddRow("scale-downs", res.Autoscale.ScaleDowns)
		at.AddRow("drain-migrated apps", res.Autoscale.DrainedApps)
		at.AddRow("peak online pairs", res.Autoscale.PeakOnline)
		at.AddRow("final online pairs", res.Autoscale.FinalOnline)
		at.Render(os.Stdout)
	}

	if len(res.TimeSeries) > 0 {
		ts := report.NewTable(fmt.Sprintf("Streaming time-series (%d windows retained)", len(res.TimeSeries)),
			"Window", "Start (s)", "Apps", "Mean RT (s)", "P50 (s)", "P99 (s)", "LUT util", "Migrated", "Faults")
		for _, w := range res.TimeSeries {
			ts.AddRow(w.Index, w.Start.Seconds(), w.Apps,
				sim.Time(w.MeanRT).Seconds(), sim.Time(w.P50).Seconds(), sim.Time(w.P99).Seconds(),
				w.UtilLUT, w.Migrated, w.FaultEvents)
		}
		ts.Render(os.Stdout)
	}
	if *timeseriesCSV != "" {
		if err := writeTimeSeriesCSV(*timeseriesCSV, res.TimeSeries); err != nil {
			fmt.Fprintln(os.Stderr, "versaslot: -timeseries-csv:", err)
			os.Exit(1)
		}
	}

	if sc.Arrival != nil {
		fmt.Printf("arrival process: %s (%s)\n", sc.Arrival.Process,
			versaslot.ArrivalProcessTitle(sc.Arrival.Process))
	}

	if *verbose {
		bt := report.NewTable("Per-application-type breakdown",
			"Spec", "Count", "Mean RT (s)", "Max RT (s)")
		for _, b := range res.BySpec {
			bt.AddRow(b.Spec, b.Count, sim.Time(b.MeanRT).Seconds(), sim.Time(b.MaxRT).Seconds())
		}
		bt.Render(os.Stdout)

		vt := report.NewTable("Per-application response times",
			"App", "Spec", "Batch", "Arrival (s)", "Response (s)")
		for _, r := range res.Samples {
			vt.AddRow(r.AppID, r.Spec, r.Batch, r.Arrival.Seconds(), sim.Time(r.Response).Seconds())
		}
		vt.Render(os.Stdout)
	}
}

// printRegistry lists a registry's names with their titles.
func printRegistry(kind string, names []string, title func(string) string) {
	fmt.Printf("registered %s:\n", kind)
	for _, name := range names {
		fmt.Printf("  %-14s %s\n", name, title(name))
	}
}

// writeRuntimeProfile dumps one named runtime profile ("block",
// "mutex") collected over the run.
func writeRuntimeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "versaslot: -%sprofile: %v\n", name, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "versaslot: -%sprofile: %v\n", name, err)
		os.Exit(1)
	}
}

// parsePairPlatforms parses "base:boost,base:boost,..." (either side
// may be empty to keep the default) into per-pair assignments.
func parsePairPlatforms(s string) []cluster.PairPlatforms {
	if s == "" {
		return nil
	}
	var out []cluster.PairPlatforms
	for _, entry := range strings.Split(s, ",") {
		base, boost, found := strings.Cut(entry, ":")
		if !found {
			// A bare name assigns the same platform to both boards.
			boost = base
		}
		out = append(out, cluster.PairPlatforms{
			Base:  strings.TrimSpace(base),
			Boost: strings.TrimSpace(boost),
		})
	}
	return out
}

// faultDefaults gives each built-in injector kind a usable parameter
// set for the bare -fault flag; anything more specific goes through
// -fault-json or a scenario file.
var faultDefaults = map[string]fault.InjectorSpec{
	fault.KindSlotFail:   {Kind: fault.KindSlotFail, MTBF: 30 * sim.Second, MTTR: 2 * sim.Second},
	fault.KindBoardFail:  {Kind: fault.KindBoardFail, MTBF: 60 * sim.Second, MTTR: 3 * sim.Second},
	fault.KindPRFlaky:    {Kind: fault.KindPRFlaky, Rate: 0.2},
	fault.KindStraggler:  {Kind: fault.KindStraggler, MTBF: 30 * sim.Second, MTTR: 3 * sim.Second, Factor: 2.5},
	fault.KindCheckpoint: {Kind: fault.KindCheckpoint, CheckpointBytes: 64, RestoreDelay: sim.Millisecond},
}

// exitErr prints err on stderr and exits with code. The library's
// errors already carry the "versaslot: " prefix; an error without it
// gets it, so every message is prefixed exactly once.
func exitErr(code int, err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "versaslot: ") {
		msg = "versaslot: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(code)
}

// parseFaultFlags builds the scenario's faults block from the
// -fault/-fault-json flags: nil when neither is set, a single
// default-parameter injector for -fault, or the full inline spec for
// -fault-json.
func parseFaultFlags(kind, inline string) *fault.Spec {
	if inline != "" {
		spec, err := fault.ParseSpec(inline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "versaslot: -fault-json:", err)
			os.Exit(2)
		}
		return &spec
	}
	if kind == "" {
		return nil
	}
	reg, ok := fault.Lookup(kind)
	if !ok {
		fmt.Fprintf(os.Stderr, "versaslot: -fault: unknown injector %q (registered: %v)\n", kind, fault.Names())
		os.Exit(2)
	}
	inj := faultDefaults[reg.Name]
	return &fault.Spec{Injectors: []fault.InjectorSpec{inj}}
}

// parseMetricsFlags builds the scenario's metrics block: nil (the
// exact default) unless any streaming flag asked for the bounded-
// memory pipeline. Zero window/ring values stay zero so the library
// defaults apply.
func parseMetricsFlags(stream bool, window sim.Duration, maxWindows int, wantCSV bool) *versaslot.MetricsSpec {
	if !stream && window == 0 && maxWindows == 0 && !wantCSV {
		return nil
	}
	return &versaslot.MetricsSpec{Mode: "stream", Window: window, MaxWindows: maxWindows}
}

// writeTimeSeriesCSV dumps the streaming time-series windows as CSV,
// one row per retained window, times in seconds.
func writeTimeSeriesCSV(path string, ts []metrics.WindowStat) error {
	var b strings.Builder
	b.WriteString("window,start_s,end_s,apps,mean_rt_s,p50_s,p99_s,mean_queue_s,util_lut,util_ff,migrated,fault_events,failed_apps\n")
	for _, w := range ts {
		fmt.Fprintf(&b, "%d,%.6f,%.6f,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%d,%d\n",
			w.Index, w.Start.Seconds(), w.End.Seconds(), w.Apps,
			sim.Time(w.MeanRT).Seconds(), sim.Time(w.P50).Seconds(), sim.Time(w.P99).Seconds(),
			sim.Time(w.MeanQueue).Seconds(), w.UtilLUT, w.UtilFF,
			w.Migrated, w.FaultEvents, w.FailedApps)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// parseJSONFlag decodes an inline-JSON flag (-tenants, -autoscale);
// an empty flag leaves the zero value. Validation happens with the
// rest of the scenario.
func parseJSONFlag[T any](name, inline string) (v T) {
	if inline == "" {
		return v
	}
	if err := json.Unmarshal([]byte(inline), &v); err != nil {
		fmt.Fprintf(os.Stderr, "versaslot: -%s: %v\n", name, err)
		os.Exit(2)
	}
	return v
}

// parseArrivalFlags builds the scenario's arrival block from the
// -arrival/-arrival-json flags: nil when neither is set (the classic
// generator), a bare named spec for -arrival (rates default from the
// condition), or the full inline spec for -arrival-json.
func parseArrivalFlags(name, inline string) *workload.ArrivalSpec {
	if inline != "" {
		spec, err := workload.ParseArrivalSpec(inline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "versaslot: -arrival-json:", err)
			os.Exit(2)
		}
		return &spec
	}
	if name != "" {
		return &workload.ArrivalSpec{Process: name}
	}
	return nil
}
