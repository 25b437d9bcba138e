// Package versaslot_test is the benchmark harness: one benchmark per
// table/figure of the paper's evaluation (Section IV), plus ablation
// benches for the design decisions DESIGN.md calls out and
// micro-benchmarks of the simulation substrate.
//
// Figure benches report their headline quantities via b.ReportMetric:
//
//	go test -bench=Fig -benchmem
//
// reproduces every figure; EXPERIMENTS.md records paper-vs-measured.
package versaslot_test

import (
	"fmt"
	"testing"

	"versaslot"
	"versaslot/internal/bitstream"
	"versaslot/internal/cluster"
	"versaslot/internal/experiments"
	"versaslot/internal/fabric"
	"versaslot/internal/fault"
	"versaslot/internal/hypervisor"
	"versaslot/internal/metrics"
	"versaslot/internal/orchestrator"
	"versaslot/internal/pipeline"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// benchConfig keeps figure benches affordable per iteration while
// preserving the paper's workload shape.
func benchConfig() experiments.Config {
	cfg := experiments.Default()
	cfg.Sequences = 4
	return cfg
}

// BenchmarkFig5ResponseTime regenerates Fig. 5: average relative
// response-time reduction per system, normalized to the Baseline, under
// each congestion condition. Reported metrics are the x-factors (e.g.
// BL_Standard_x; paper: 13.66).
func BenchmarkFig5ResponseTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(benchConfig())
		for _, cond := range workload.Conditions() {
			for _, name := range sched.Names()[1:6] { // the five sharing systems
				cell := r.Lookup(cond, name)
				b.ReportMetric(cell.Reduction, metricName[name]+"_"+condName(cond)+"_x")
			}
		}
	}
}

// BenchmarkFig6TailLatency regenerates Fig. 6: P95/P99 tail response
// times normalized to the Baseline (lower is better).
func BenchmarkFig6TailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6(benchConfig())
		for _, g := range experiments.Fig6Groups() {
			bl := r.Lookup(g, "versaslot-bl").Relative
			nim := r.Lookup(g, "nimblock").Relative
			b.ReportMetric(bl, "BL_"+g)
			b.ReportMetric(nim, "Nimblock_"+g)
		}
	}
}

// BenchmarkFig7Utilization regenerates Fig. 7: the LUT/FF utilization
// increase of 3-in-1 bundles (paper averages: +35% LUT, +29% FF; the
// per-app bars reproduce exactly).
func BenchmarkFig7Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7()
		for _, g := range r.Gains {
			b.ReportMetric(g.LUTPct, g.App+"_LUT_pct")
			b.ReportMetric(g.FFPct, g.App+"_FF_pct")
		}
		b.ReportMetric(r.AvgLUTPct, "avg_LUT_pct")
		b.ReportMetric(r.AvgFFPct, "avg_FF_pct")
	}
}

// BenchmarkFig8Switching regenerates Fig. 8: cross-board switching with
// live migration versus static Only.Little / Big.Little (paper: 2.98x
// and 6.65x vs Only.Little; 1.13 ms mean switch overhead).
func BenchmarkFig8Switching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig8()
		cfg.Workloads = 2
		r := experiments.Fig8(cfg)
		b.ReportMetric(r.SwitchingReduction, "switching_x")
		b.ReportMetric(r.BigLittleReduction, "bigLittle_x")
		b.ReportMetric(float64(r.Switches), "switches")
		b.ReportMetric(float64(r.MeanSwitchTime)/1e6, "switch_ms")
	}
}

// --- Ablations -------------------------------------------------------

// BenchmarkAblationDualCore isolates the dual-core PR server: the same
// allocation policy (Nimblock's) on the same Only.Little board, single
// core versus dedicated PR core.
func BenchmarkAblationDualCore(b *testing.B) {
	p := workload.DefaultGenParams(workload.Stress)
	seq := workload.Generate(p, 77)
	for i := 0; i < b.N; i++ {
		single := runCustom(b, seq, fabric.ZCU216OnlyLittle, hypervisor.SingleCore, "nimblock")
		dual := runCustom(b, seq, fabric.ZCU216OnlyLittle, hypervisor.DualCore, "nimblock")
		b.ReportMetric(single.Seconds(), "singleCore_meanRT_s")
		b.ReportMetric(dual.Seconds(), "dualCore_meanRT_s")
		b.ReportMetric(single.Seconds()/dual.Seconds(), "speedup_x")
	}
}

// BenchmarkAblationBundling isolates the Big.Little architecture: both
// systems run dual-core VersaSlot scheduling; only the board differs.
func BenchmarkAblationBundling(b *testing.B) {
	p := workload.DefaultGenParams(workload.Stress)
	seq := workload.Generate(p, 78)
	for i := 0; i < b.N; i++ {
		ol, err := versaslot.Run(versaslot.Scenario{Policy: "versaslot-ol", Workload: seq, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		bl, err := versaslot.Run(versaslot.Scenario{Policy: "versaslot-bl", Workload: seq, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sim.Time(ol.Summary.MeanRT).Seconds(), "onlyLittle_meanRT_s")
		b.ReportMetric(sim.Time(bl.Summary.MeanRT).Seconds(), "bigLittle_meanRT_s")
		b.ReportMetric(float64(ol.Summary.PRLoads)/float64(bl.Summary.PRLoads), "PR_reduction_x")
	}
}

// BenchmarkAblationBitstreamCache isolates the DDR bitstream cache:
// Nimblock with and without cached partials.
func BenchmarkAblationBitstreamCache(b *testing.B) {
	p := workload.DefaultGenParams(workload.Stress)
	seq := workload.Generate(p, 79)
	for i := 0; i < b.N; i++ {
		cached := runCustom(b, seq, fabric.ZCU216OnlyLittle, hypervisor.SingleCore, "nimblock")
		uncached := runCustomNoCache(b, seq)
		b.ReportMetric(cached.Seconds(), "cached_meanRT_s")
		b.ReportMetric(uncached.Seconds(), "uncached_meanRT_s")
	}
}

// BenchmarkAblationRedistribution isolates Algorithm 1's leftover-slot
// redistribution: VersaSlot OL (redistributes) versus the identical
// dual-core engine running Nimblock's allocator (does not).
func BenchmarkAblationRedistribution(b *testing.B) {
	p := workload.DefaultGenParams(workload.Standard)
	seq := workload.Generate(p, 80)
	for i := 0; i < b.N; i++ {
		with, err := versaslot.Run(versaslot.Scenario{Policy: "versaslot-ol", Workload: seq, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		without := runCustom(b, seq, fabric.ZCU216OnlyLittle, hypervisor.DualCore, "nimblock")
		b.ReportMetric(sim.Time(with.Summary.MeanRT).Seconds(), "with_meanRT_s")
		b.ReportMetric(without.Seconds(), "without_meanRT_s")
	}
}

// BenchmarkAblationHostControl isolates the control-plane placement:
// the embedded ARM hypervisor versus a host CPU driving the board over
// PCIe (Section III-A's "For FPGA boards without a dedicated CPU").
func BenchmarkAblationHostControl(b *testing.B) {
	p := workload.DefaultGenParams(workload.Stress)
	seq := workload.Generate(p, 81)
	for i := 0; i < b.N; i++ {
		embedded, err := versaslot.Run(versaslot.Scenario{Policy: "versaslot-bl", Workload: seq, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		params := sched.DefaultParams()
		params.HostControl = true
		host, err := versaslot.Run(versaslot.Scenario{Policy: "versaslot-bl", Workload: seq, Seed: 1, Params: &params})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sim.Time(embedded.Summary.MeanRT).Seconds(), "embedded_meanRT_s")
		b.ReportMetric(sim.Time(host.Summary.MeanRT).Seconds(), "hostPCIe_meanRT_s")
	}
}

// BenchmarkAblationPreemption isolates the aging preemption: VersaSlot
// OL with the default 2s preemption age versus preemption disabled
// (infinite age).
func BenchmarkAblationPreemption(b *testing.B) {
	p := workload.DefaultGenParams(workload.Stress)
	seq := workload.Generate(p, 82)
	for i := 0; i < b.N; i++ {
		on, err := versaslot.Run(versaslot.Scenario{Policy: "versaslot-ol", Workload: seq, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		params := sched.DefaultParams()
		params.PreemptAge = 1 << 40 // effectively never
		off, err := versaslot.Run(versaslot.Scenario{Policy: "versaslot-ol", Workload: seq, Seed: 1, Params: &params})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sim.Time(on.Summary.MeanRT).Seconds(), "preempt_meanRT_s")
		b.ReportMetric(sim.Time(off.Summary.MeanRT).Seconds(), "noPreempt_meanRT_s")
		b.ReportMetric(float64(on.Summary.Preemptions), "preemptions")
	}
}

// BenchmarkFailureInjection measures scheduling resilience to flaky
// reconfiguration: the pr-flaky injector fails 20% of PCAP attempts.
func BenchmarkFailureInjection(b *testing.B) {
	p := workload.DefaultGenParams(workload.Stress)
	s := versaslot.Scenario{
		Policy:   "versaslot-bl",
		Workload: workload.Generate(p, 83),
		Seed:     1,
		Faults:   &fault.Spec{Injectors: []fault.InjectorSpec{{Kind: fault.KindPRFlaky, Rate: 0.2}}},
	}
	for i := 0; i < b.N; i++ {
		res, err := versaslot.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sim.Time(res.Summary.MeanRT).Seconds(), "meanRT_s")
		b.ReportMetric(float64(res.Summary.PRRetries), "retries")
	}
}

// BenchmarkFarmDispatch compares the registered farm dispatchers at
// 8/32/128 pairs on a stress workload scaled to the farm size. The
// incremental load counters keep dispatch O(pairs) per arrival (the
// former implementation re-scanned every engine's queue), so the gap
// between dispatchers at 128 pairs is policy cost, not bookkeeping.
func BenchmarkFarmDispatch(b *testing.B) {
	for _, pairs := range []int{8, 32, 128} {
		for _, name := range cluster.DispatcherNames() {
			b.Run(fmt.Sprintf("%s/pairs=%d", name, pairs), farmDispatchBench(name, pairs))
		}
	}
}

// farmStressSequence is the farm benches' stress workload, three apps
// per pair.
func farmStressSequence(pairs int) *workload.Sequence {
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = pairs * 3
	return workload.Generate(p, 4242)
}

func farmDispatchBench(dispatcher string, pairs int) func(*testing.B) {
	seq := farmStressSequence(pairs)
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := cluster.DefaultFarmConfig(pairs)
			cfg.Dispatcher = dispatcher
			cfg.RebalanceEvery = 2 * sim.Second
			f := cluster.MustNewFarm(cfg)
			if err := f.Inject(seq); err != nil {
				b.Fatal(err)
			}
			sum := f.Run()
			resp := merged(f)
			if resp.Apps != len(seq.Arrivals) {
				b.Fatalf("finished %d of %d apps", resp.Apps, len(seq.Arrivals))
			}
			b.ReportMetric(float64(sum.CrossSwitches), "crossMigrations")
		}
	}
}

// BenchmarkFarmRun prices the farm executor alone: a least-loaded farm
// at fleet scale, built and injected under StopTimer so the measurement
// is Farm.Run — every pair run ahead to each control instant, the
// control plane drained, the pairs merged.
func BenchmarkFarmRun(b *testing.B) {
	for _, pairs := range []int{128, 1024} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), farmRunBench(pairs))
	}
}

func farmRunBench(pairs int) func(*testing.B) {
	seq := farmStressSequence(pairs)
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg := cluster.DefaultFarmConfig(pairs)
			cfg.RebalanceEvery = 2 * sim.Second
			f := cluster.MustNewFarm(cfg)
			if err := f.Inject(seq); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			f.Run()
			resp := merged(f)
			if resp.Apps != len(seq.Arrivals) {
				b.Fatalf("finished %d of %d apps", resp.Apps, len(seq.Arrivals))
			}
		}
	}
}

// BenchmarkFarmDispatchHetero prices capacity-aware dispatch on a
// mixed-platform farm: pairs cycle ZCU216 Big.Little / U250 quad /
// PYNQ dual, so every arrival filters pairs through the per-spec
// eligibility cache before the dispatcher ranks them.
func BenchmarkFarmDispatchHetero(b *testing.B) {
	for _, pairs := range []int{8, 32} {
		b.Run(fmt.Sprintf("least-loaded/pairs=%d", pairs), farmHeteroBench(pairs))
	}
}

func farmHeteroBench(pairs int) func(*testing.B) {
	seq := farmStressSequence(pairs)
	platforms := make([]cluster.PairPlatforms, pairs)
	for i := range platforms {
		switch i % 3 {
		case 1:
			platforms[i] = cluster.PairPlatforms{Base: fabric.U250Quad, Boost: fabric.U250Quad}
		case 2:
			platforms[i] = cluster.PairPlatforms{Base: fabric.PYNQDual, Boost: fabric.PYNQDual}
		}
	}
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := cluster.DefaultFarmConfig(pairs)
			cfg.PairPlatforms = platforms
			cfg.RebalanceEvery = 2 * sim.Second
			f := cluster.MustNewFarm(cfg)
			if err := f.Inject(seq); err != nil {
				b.Fatal(err)
			}
			sum := f.Run()
			resp := merged(f)
			if resp.Apps != len(seq.Arrivals) {
				b.Fatalf("finished %d of %d apps", resp.Apps, len(seq.Arrivals))
			}
			b.ReportMetric(float64(sum.CrossSwitches), "crossMigrations")
		}
	}
}

// BenchmarkFarmBuild prices farm construction alone: the record of
// every pair of a fleet-scale least-loaded farm, made before the first
// arrival. No board is built here; a pair builds its boards when work
// reaches it. TestNewFarmAllocs pins that the allocations do not grow
// with the pair count; this reports the whole build.
func BenchmarkFarmBuild(b *testing.B) {
	const pairs = 1024
	b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			cluster.MustNewFarm(cluster.DefaultFarmConfig(pairs))
		}
	})
}

// --- Substrate micro-benchmarks --------------------------------------

func BenchmarkKernelEvents(b *testing.B) {
	k := sim.NewKernel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Schedule(sim.Microsecond, func() {})
		k.Step()
	}
}

func BenchmarkServerJobs(b *testing.B) {
	k := sim.NewKernel(1)
	s := sim.NewServer(k, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.SubmitFunc("job", "bench", sim.Microsecond, nil)
		for k.Step() {
		}
	}
}

func BenchmarkPipelineMakespan(b *testing.B) {
	plan := pipeline.Plan{
		StageTimes: []sim.Duration{31, 28, 36, 42, 36, 31, 42, 36, 48},
		Batch:      30,
		LoadTime:   21 * sim.Millisecond,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for s := 1; s <= 8; s++ {
			_ = plan.Makespan(s)
		}
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	p := workload.DefaultGenParams(workload.Standard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = workload.Generate(p, uint64(i))
	}
}

// BenchmarkEndToEndStress measures the simulator itself: one full
// 20-app stress run per iteration.
func BenchmarkEndToEndStress(b *testing.B) {
	p := workload.DefaultGenParams(workload.Stress)
	seq := workload.Generate(p, 99)
	for i := 0; i < b.N; i++ {
		if _, err := versaslot.Run(versaslot.Scenario{Policy: "versaslot-bl", Workload: seq, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChaosFaults prices the fault-injection path end to end: a
// stress run on a cluster with every built-in injector layered on —
// fail/recover chains, crash-restart teardowns, PR retries, straggle
// episodes, checkpointed resume. Paired with BenchmarkEndToEndStress
// it bounds the chaos subsystem's overhead; TestBenchCeilings pins both.
func BenchmarkChaosFaults(b *testing.B) {
	sc := versaslot.Scenario{
		Topology: versaslot.TopologyCluster, Condition: "stress", Apps: 20, Seed: 7,
		Faults: &fault.Spec{Injectors: []fault.InjectorSpec{
			{Kind: fault.KindSlotFail, MTBF: 25 * sim.Second, MTTR: 2 * sim.Second},
			{Kind: fault.KindBoardFail, MTBF: 40 * sim.Second, MTTR: 2 * sim.Second},
			{Kind: fault.KindPRFlaky, Rate: 0.2, MaxRetries: 3, Backoff: sim.Millisecond, BackoffFactor: 2},
			{Kind: fault.KindStraggler, MTBF: 20 * sim.Second, MTTR: 2 * sim.Second, Factor: 2.0},
			{Kind: fault.KindCheckpoint, CheckpointBytes: 64, RestoreDelay: sim.Millisecond},
		}},
	}
	for i := 0; i < b.N; i++ {
		res, err := versaslot.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if res.Summary.Apps != sc.Apps {
			b.Fatalf("finished %d of %d apps", res.Summary.Apps, sc.Apps)
		}
	}
}

// BenchmarkAutoscaleChurn prices the fleet control plane under churn:
// two quota'd tenants submit MMPP bursts through admission while the
// autoscaler rides the load signal through repeated scale-up / drain
// cycles on a 1..4-pair farm. Each iteration is one full orchestrated
// run — admission decisions, pump releases, activation latencies, and
// drain migrations all on the farm kernel. Paired with
// BenchmarkEndToEndStress it bounds the orchestrator's overhead;
// TestBenchCeilings pins it.
func BenchmarkAutoscaleChurn(b *testing.B) {
	mmpp := &workload.ArrivalSpec{Process: "mmpp"}
	sc := versaslot.Scenario{
		Topology: versaslot.TopologyFarm, Condition: "stress", Pairs: 1, Seed: 31,
		Tenants: []orchestrator.TenantSpec{
			{Name: "batch", Apps: 40, Quota: 6, Priority: 5, Arrival: mmpp},
			{Name: "interactive", Apps: 20, Quota: 4, Priority: 1, SLO: 6 * sim.Second, Arrival: mmpp},
		},
		Autoscale: &orchestrator.AutoscaleSpec{
			Min: 1, Max: 4, Every: 500 * sim.Millisecond, Window: 2,
			UpLatency: 500 * sim.Millisecond, UpLoad: 4, DownLoad: 1,
		},
	}
	for i := 0; i < b.N; i++ {
		res, err := versaslot.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if res.Autoscale == nil || res.Autoscale.ScaleUps == 0 {
			b.Fatal("the churn bench did not scale up: the load signal never crossed the up threshold")
		}
		b.ReportMetric(float64(res.Autoscale.ScaleUps+res.Autoscale.ScaleDowns), "scaleOps")
	}
}

// BenchmarkStreamingHorizon prices the bounded-memory metrics pipeline
// at long horizons: each iteration builds a streaming collector (global
// sketch + rolling window ring), folds n synthetic response samples
// through it — cycling the ring through many rollovers — and
// summarizes. bytes/op is the pipeline's entire per-run allocation, so
// it must stay flat as n grows 10x (exact mode retains 64+ bytes per
// sample and would scale linearly); TestBenchCeilings pins bytes/op
// and allocs/op tightly at both sizes.
func BenchmarkStreamingHorizon(b *testing.B) {
	for _, n := range []int{100000, 1000000} {
		b.Run(fmt.Sprintf("samples=%d", n), streamingHorizonBench(n))
	}
}

func streamingHorizonBench(n int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := metrics.NewCollector(fabric.ResVec{LUT: 100, FF: 200})
			c.EnableStreaming(metrics.StreamConfig{Window: 10 * sim.Second, MaxWindows: 64})
			r := sim.NewRNG(42)
			for j := 0; j < n; j++ {
				rt := sim.Duration(1e6 + r.Float64()*8e8)
				fin := sim.Time(j) * sim.Time(50*sim.Millisecond)
				c.RecordResponse(metrics.ResponseSample{
					AppID: j, Spec: "AN", Batch: 4,
					Arrival: fin - sim.Time(rt), Finish: fin,
					Response: rt, QueueDelay: rt / 8,
				})
			}
			if s := c.Summarize(); s.Apps != n {
				b.Fatalf("summarized %d of %d samples", s.Apps, n)
			}
		}
	}
}

// --- helpers ----------------------------------------------------------

func runCustom(b *testing.B, seq *workload.Sequence, platform string, model hypervisor.CoreModel, policy string) sim.Time {
	b.Helper()
	k := sim.NewKernel(1)
	e := sched.NewEngine(k, sched.DefaultParams(), fabric.NewBoard(0, fabric.MustPlatform(platform)), model, bitstream.SuiteRepo())
	e.SetPolicy(newPolicy(b, policy))
	apps, err := seq.Instantiate(0)
	if err != nil {
		b.Fatal(err)
	}
	e.InjectSequence(apps)
	k.Run()
	e.CheckQuiescent()
	var sum float64
	for _, r := range e.Col.Responses {
		sum += float64(r.Response)
	}
	return sim.Time(sum / float64(len(e.Col.Responses)))
}

func runCustomNoCache(b *testing.B, seq *workload.Sequence) sim.Time {
	b.Helper()
	k := sim.NewKernel(1)
	e := sched.NewEngine(k, sched.DefaultParams(), fabric.NewBoard(0, fabric.MustPlatform(fabric.ZCU216OnlyLittle)), hypervisor.SingleCore, bitstream.SuiteRepo())
	e.SetPolicy(newPolicy(b, "nimblock"))
	e.DisableBitstreamCache()
	apps, err := seq.Instantiate(0)
	if err != nil {
		b.Fatal(err)
	}
	e.InjectSequence(apps)
	k.Run()
	e.CheckQuiescent()
	var sum float64
	for _, r := range e.Col.Responses {
		sum += float64(r.Response)
	}
	return sim.Time(sum / float64(len(e.Col.Responses)))
}

// newPolicy builds a fresh instance of a registered policy.
func newPolicy(b *testing.B, name string) sched.Policy {
	b.Helper()
	r, ok := sched.Lookup(name)
	if !ok {
		b.Fatalf("policy %q not registered", name)
	}
	return r.Factory()
}

// metricName is the short label a policy's figure metrics carry.
var metricName = map[string]string{
	"fcfs": "FCFS", "rr": "RR", "nimblock": "Nimblock",
	"versaslot-ol": "OL", "versaslot-bl": "BL",
}

func condName(c workload.Condition) string {
	switch c {
	case workload.Loose:
		return "Loose"
	case workload.Standard:
		return "Std"
	case workload.Stress:
		return "Stress"
	default:
		return "RT"
	}
}

// merged merges every board of a farm that has run through
// Cluster.AbsorbInto, the facade's own merge, and summarizes it.
func merged(f *cluster.Farm) metrics.Summary {
	var agg metrics.Collector
	for _, p := range f.Pairs {
		p.AbsorbInto(&agg)
	}
	return agg.Summarize()
}
