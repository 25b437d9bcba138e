package main

import (
	"fmt"
	"reflect"
	"sort"

	"versaslot"
	"versaslot/internal/appmodel"
	"versaslot/internal/bundle"
	"versaslot/internal/cluster"
	"versaslot/internal/core"
	"versaslot/internal/fault"
	"versaslot/internal/metrics"
	"versaslot/internal/migrate"
	"versaslot/internal/orchestrator"
	"versaslot/internal/rng"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// The traced path drives a scenario through each layer's public
// functions in the order the facade calls them, with one span per
// layer call. It mirrors the versaslot facade for the scenario shapes
// the workloads use (generated workloads, registry platforms, the
// single and farm topologies, exact metrics); the Summary it merges must equal the
// facade Result's Summary, so the spans time the same work.

// Layer span names; each becomes a "<name>_s" per-layer metric.
const (
	layerValidate     = "facade.validate"
	layerGen          = "workload.gen"
	layerBuild        = "cluster.build"
	layerInject       = "cluster.inject"
	layerOrchestrator = "orchestrator.setup"
	layerFault        = "fault.attach"
	layerRun          = "cluster.run"
	layerSummarize    = "metrics.summarize"
)

var layerNames = []string{layerValidate, layerGen, layerBuild, layerInject,
	layerOrchestrator, layerFault, layerRun, layerSummarize}

// layerCounts are the simulated work counts of one traced scenario.
type layerCounts struct {
	apps, dispatches, switches, crossMigrations int
	shards                                      int
	events                                      uint64
	prLoads, prBlocked, preemptions             uint64
	launchWait                                  sim.Duration
	cacheHits, cacheMisses                      uint64
	samplesRetained                             int
	admitted, rejected, scaleOps, drainMigrated int
	faultEvents, prRetries, crashRestarted      uint64
}

func (c *layerCounts) add(o layerCounts) {
	c.apps += o.apps
	c.dispatches += o.dispatches
	c.switches += o.switches
	c.crossMigrations += o.crossMigrations
	c.shards = max(c.shards, o.shards)
	c.events += o.events
	c.prLoads += o.prLoads
	c.prBlocked += o.prBlocked
	c.preemptions += o.preemptions
	c.launchWait += o.launchWait
	c.cacheHits += o.cacheHits
	c.cacheMisses += o.cacheMisses
	c.samplesRetained += o.samplesRetained
	c.admitted += o.admitted
	c.rejected += o.rejected
	c.scaleOps += o.scaleOps
	c.drainMigrated += o.drainMigrated
	c.faultEvents += o.faultEvents
	c.prRetries += o.prRetries
	c.crashRestarted += o.crashRestarted
}

// seqCache shares generated sequences between the scenarios of one
// traced operation, as the facade's RunMany sequence cache does, so
// workload.gen times the generations the facade performs.
type seqCache map[string]*workload.Sequence

// mirror runs one scenario through the layers and returns its merged
// Summary and counts.
func mirror(rt *runTrace, s versaslot.Scenario, cache seqCache) (metrics.Summary, layerCounts, error) {
	s = defaulted(s)
	var err error
	rt.span(layerValidate, func() { err = s.Validate() })
	if err != nil {
		return metrics.Summary{}, layerCounts{}, err
	}
	switch s.Topology {
	case versaslot.TopologySingle:
		return mirrorSingle(rt, s, cache)
	case versaslot.TopologyFarm:
		return mirrorFarm(rt, s)
	}
	return metrics.Summary{}, layerCounts{}, fmt.Errorf("%s: the traced path covers the single and farm topologies, not %q", s.Name, s.Topology)
}

// defaulted fills the scenario defaults the facade applies.
func defaulted(s versaslot.Scenario) versaslot.Scenario {
	if s.Topology == "" {
		s.Topology = versaslot.TopologySingle
	}
	if s.Policy == "" {
		s.Policy = "versaslot-bl"
	}
	if s.Condition == "" {
		s.Condition = "standard"
	}
	if s.Apps == 0 {
		s.Apps = 20
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Pairs == 0 {
		s.Pairs = 2
	}
	return s
}

// generate produces the scenario's workload sequence as the facade
// does: the condition's generator parameters, then the arrival block
// or the classic generator.
func generate(s versaslot.Scenario, apps int, arrival *workload.ArrivalSpec, condName string, seed uint64) (*workload.Sequence, error) {
	cond, err := workload.ParseCondition(condName)
	if err != nil {
		return nil, err
	}
	p := workload.DefaultGenParams(cond)
	p.Apps = apps
	if arrival != nil {
		return workload.GenerateArrival(p, arrival.WithCondition(cond), seed)
	}
	return workload.Generate(p, seed), nil
}

func mirrorSingle(rt *runTrace, s versaslot.Scenario, cache seqCache) (metrics.Summary, layerCounts, error) {
	var (
		seq   *workload.Sequence
		sys   *core.System
		apps  []*appmodel.App
		sum   metrics.Summary
		count layerCounts
		err   error
	)
	rt.span(layerGen, func() {
		key := fmt.Sprintf("%s/%d/%d", s.Condition, s.Seed, s.Apps)
		if seq = cache[key]; seq == nil {
			seq, err = generate(s, s.Apps, s.Arrival, s.Condition, s.Seed)
			cache[key] = seq
		}
	})
	if err != nil {
		return sum, count, err
	}
	rt.span(layerBuild, func() {
		sys, err = core.NewPlatformSystem(s.Policy, nil, s.Seed, s.Params)
	})
	if err != nil {
		return sum, count, err
	}
	rt.span(layerInject, func() {
		apps, err = seq.Instantiate(0)
		if err != nil {
			return
		}
		platform := sys.Engine.Board.Platform
		for _, a := range apps {
			if !platform.Virtual && !bundle.Hostable(a.Spec, platform) {
				err = fmt.Errorf("app %v (%s) fits no slot class of platform %q", a, a.Spec.Name, platform.Name)
				return
			}
		}
	})
	if err != nil {
		return sum, count, err
	}
	rt.span(layerOrchestrator, func() {}) // a single board has no control plane
	rt.span(layerFault, func() {
		if s.Faults != nil {
			err = fault.Attach(&fault.Target{K: sys.Kernel, Engines: []*sched.Engine{sys.Engine}}, *s.Faults, s.Seed)
		}
	})
	if err != nil {
		return sum, count, err
	}
	// System.Execute, split at its layer boundaries: injection, the
	// kernel run, and the collector summary.
	rt.span(layerInject, func() { sys.Engine.InjectSequence(apps) })
	rt.span(layerRun, func() {
		sys.Kernel.Run()
		sys.Engine.FlushResidency()
		if n := sys.Engine.UnfinishedCount(); n > 0 {
			err = fmt.Errorf("%s: %d apps unfinished", s.Name, n)
		}
	})
	if err != nil {
		return sum, count, err
	}
	rt.span(layerSummarize, func() { sum = sys.Engine.Col.Summarize() })
	count = engineCounts([]*sched.Engine{sys.Engine}, sum)
	count.apps = len(apps)
	count.shards = 1
	count.events = sys.Kernel.Executed()
	return sum, count, nil
}

// farmConfig maps the scenario's farm knobs onto a farm configuration
// as the facade does.
func farmConfig(s versaslot.Scenario) cluster.FarmConfig {
	pair := cluster.DefaultConfig()
	pair.Seed = s.Seed
	if s.Params != nil {
		pair.Params = *s.Params
	}
	if s.ThresholdUp > 0 {
		pair.ThresholdUp = s.ThresholdUp
	}
	if s.ThresholdDown > 0 {
		pair.ThresholdDown = s.ThresholdDown
	}
	if s.WindowUpdates > 0 {
		pair.WindowUpdates = s.WindowUpdates
	}
	if s.Smoothing > 0 {
		pair.Smoothing = s.Smoothing
	}
	cfg := cluster.FarmConfig{
		Pair:           pair,
		Pairs:          s.Pairs,
		PairPlatforms:  s.PairPlatforms,
		Dispatcher:     s.Dispatcher,
		RebalanceEvery: s.RebalanceEvery,
		RebalanceGap:   s.RebalanceGap,
		Shards:         s.Shards,
	}
	if s.Autoscale != nil {
		a := s.Autoscale.Defaulted()
		cfg.Pairs = a.Max
		cfg.Standby = a.Max - s.Pairs
	}
	return cfg
}

var pairModes = []migrate.Mode{migrate.Base, migrate.Boost}

func mirrorFarm(rt *runTrace, s versaslot.Scenario) (metrics.Summary, layerCounts, error) {
	var (
		seq     *workload.Sequence
		tenants []*workload.Sequence
		f       *cluster.Farm
		orch    *orchestrator.Orchestrator
		engines []*sched.Engine
		csum    cluster.Summary
		sum     metrics.Summary
		count   layerCounts
		err     error
	)
	rt.span(layerGen, func() {
		if len(s.Tenants) == 0 {
			seq, err = generate(s, s.Apps, s.Arrival, s.Condition, s.Seed)
			return
		}
		for _, t := range s.Tenants {
			condName, apps := s.Condition, t.Apps
			if t.Condition != "" {
				condName = t.Condition
			}
			if apps == 0 {
				apps = s.Apps
			}
			var ts *workload.Sequence
			ts, err = generate(s, apps, t.Arrival, condName, rng.Derive(s.Seed, "tenant/"+t.Name))
			if err != nil {
				return
			}
			ts.Name = t.Name
			tenants = append(tenants, ts)
		}
	})
	if err != nil {
		return sum, count, err
	}
	rt.span(layerBuild, func() {
		f, err = cluster.NewFarm(farmConfig(s))
		if err != nil {
			return
		}
		for _, pair := range f.Pairs {
			for _, mode := range pairModes {
				engines = append(engines, pair.Engine(mode))
			}
		}
	})
	if err != nil {
		return sum, count, err
	}
	rt.span(layerOrchestrator, func() {
		if len(s.Tenants) > 0 || s.Autoscale != nil {
			orch, err = orchestrator.New(f, orchestrator.Config{Tenants: s.Tenants, Autoscale: s.Autoscale})
		}
	})
	if err != nil {
		return sum, count, err
	}
	rt.span(layerInject, func() {
		if len(s.Tenants) == 0 {
			err = f.Inject(seq)
		}
	})
	if err != nil {
		return sum, count, err
	}
	rt.span(layerOrchestrator, func() {
		if len(s.Tenants) > 0 {
			err = orch.InjectTenants(tenants)
		}
	})
	if err != nil {
		return sum, count, err
	}
	rt.span(layerFault, func() {
		if s.Faults != nil {
			err = fault.Attach(&fault.Target{
				K: f.K, Engines: engines, Pairs: f.Pairs, Farm: f, Quiescent: f.Quiescent,
				Pri: sim.PriFarmControl, Touch: f.TouchPair,
			}, *s.Faults, s.Seed)
		}
	})
	if err != nil {
		return sum, count, err
	}
	rt.span(layerOrchestrator, func() {
		if orch != nil {
			orch.Start()
		}
	})
	rt.span(layerRun, func() { csum = f.Run() })
	rt.span(layerSummarize, func() { sum = mergeSummary(engines) })

	count = engineCounts(engines, sum)
	if seq != nil {
		count.apps = len(seq.Arrivals)
	}
	for _, ts := range tenants {
		count.apps += len(ts.Arrivals)
	}
	for _, n := range f.RoutedView() {
		count.dispatches += n
	}
	count.switches = csum.Switches
	count.crossMigrations = csum.CrossSwitches
	count.shards = f.ShardCount()
	count.events = f.K.Executed()
	for _, p := range f.Pairs {
		if p.K != f.K {
			count.events += p.K.Executed()
		}
	}
	if orch != nil {
		for _, t := range orch.TenantStats() {
			count.admitted += t.Admitted
			count.rejected += t.Rejected
		}
		if as := orch.AutoscaleStats(); as != nil {
			count.scaleOps = as.ScaleUps + as.ScaleDowns
			count.drainMigrated = as.DrainedApps
		}
	}
	return sum, count, nil
}

// engineCounts reads the scheduler, bitstream-cache and collector
// counters of a run's engines and its merged summary.
func engineCounts(engines []*sched.Engine, sum metrics.Summary) layerCounts {
	c := layerCounts{
		prLoads: sum.PRLoads, prBlocked: sum.PRBlocked, preemptions: sum.Preemptions,
		faultEvents: sum.FaultEvents, prRetries: sum.PRRetries, crashRestarted: sum.FailedApps,
	}
	for _, e := range engines {
		c.launchWait += e.Cores.Sched.Stats().WaitByName["launch"]
		hits, misses := e.Cache.Stats()
		c.cacheHits += hits
		c.cacheMisses += misses
		c.samplesRetained += len(e.Col.Responses)
	}
	return c
}

// mergeSummary merges per-engine collectors into one Summary the way
// the facade merges a multi-board Result in exact metrics mode:
// counters summed, distributions over the samples pooled in
// application order.
func mergeSummary(engines []*sched.Engine) metrics.Summary {
	var out metrics.Summary
	var down sim.Duration
	var slotSpan float64
	faultsOn := false
	var pooled []metrics.ResponseSample
	var utilLUT, utilFF, utilDSP, utilBRAM, weight float64
	for _, e := range engines {
		s := e.Col.Summarize()
		out.PRLoads += s.PRLoads
		out.PRBlocked += s.PRBlocked
		out.PRRetries += s.PRRetries
		out.PRWait += s.PRWait
		out.Preemptions += s.Preemptions
		out.Migrations += s.Migrations
		if d, span, events, failed, retried, on := e.Col.FaultStats(); on {
			faultsOn = true
			down += d
			slotSpan += span
			out.FaultEvents += events
			out.FailedApps += failed
			out.RetriedApps += retried
		}
		utilLUT += s.UtilLUT * float64(s.Apps)
		utilFF += s.UtilFF * float64(s.Apps)
		utilDSP += s.UtilDSP * float64(s.Apps)
		utilBRAM += s.UtilBRAM * float64(s.Apps)
		weight += float64(s.Apps)
		pooled = append(pooled, e.Col.Responses...)
	}
	if faultsOn {
		out.Downtime = down
		out.Availability = 1
		if slotSpan > 0 {
			out.Availability = max(0, 1-down.Seconds()/slotSpan)
		}
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i].AppID < pooled[j].AppID })
	out.Apps = len(pooled)
	if weight > 0 {
		out.UtilLUT, out.UtilFF = utilLUT/weight, utilFF/weight
		out.UtilDSP, out.UtilBRAM = utilDSP/weight, utilBRAM/weight
	}
	if len(pooled) == 0 {
		return out
	}
	out.MeanRT = metrics.MeanResponse(pooled)
	vals := make([]float64, len(pooled))
	var queue float64
	out.MinRT, out.MaxRT = pooled[0].Response, pooled[0].Response
	for i, p := range pooled {
		vals[i] = float64(p.Response)
		queue += float64(p.QueueDelay)
		out.MinRT = min(out.MinRT, p.Response)
		out.MaxRT = max(out.MaxRT, p.Response)
	}
	out.P50 = sim.Duration(metrics.PercentileOf(vals, 50))
	out.P95 = sim.Duration(metrics.PercentileOf(vals, 95))
	out.P99 = sim.Duration(metrics.PercentileOf(vals, 99))
	out.MeanQueue = sim.Duration(queue / float64(len(pooled)))
	return out
}

// sameSummary reports whether the traced path reproduced the facade's
// Summary exactly.
func sameSummary(s versaslot.Scenario, mirrored metrics.Summary, r *versaslot.Result) error {
	if !reflect.DeepEqual(mirrored, r.Summary) {
		return fmt.Errorf("%s: traced-path summary %+v differs from the facade's %+v", s.Name, mirrored, r.Summary)
	}
	return nil
}
