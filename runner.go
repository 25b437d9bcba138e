package versaslot

import (
	"fmt"
	"sync"

	"versaslot/internal/appmodel"
	"versaslot/internal/bundle"
	"versaslot/internal/cluster"
	"versaslot/internal/core"
	"versaslot/internal/fabric"
	"versaslot/internal/fault"
	"versaslot/internal/migrate"
	"versaslot/internal/orchestrator"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
	"versaslot/internal/trace"
	"versaslot/internal/workload"
)

// Event is one streamed simulation event delivered to an Observer.
type Event struct {
	// Scenario names the run the event belongs to — under RunMany,
	// concurrent runs interleave and this is the attribution key.
	Scenario string
	// At is the virtual time of the event.
	At sim.Time
	// Kind is "arrival", "finish", or "switch".
	Kind string
	// AppID/Spec/Batch identify the application ("arrival"/"finish").
	AppID int
	Spec  string
	Batch int
	// Board is the board the event occurred on; for "switch" events,
	// the switching pair's first board.
	Board int
	// From/To are the board modes of a "switch" event.
	From, To string
}

// Observer receives per-event callbacks while a scenario runs. Under
// RunMany, callbacks from concurrent runs are serialized but may
// interleave across scenarios; Event.Scenario attributes each event
// to its run.
type Observer func(Event)

// Runner executes scenarios. The zero value (NewRunner with no
// options) is ready to use; options attach tracing, typed event
// recording, and streaming observers.
type Runner struct {
	traceFn  func(format string, args ...any)
	recorder *trace.Recorder
	observer Observer
	obsMu    sync.Mutex
}

// Option configures a Runner.
type Option func(*Runner)

// WithTrace streams one formatted line per engine event (PR
// start/completion, item launch/completion, app lifecycle) to fn.
func WithTrace(fn func(format string, args ...any)) Option {
	return func(r *Runner) { r.traceFn = fn }
}

// WithRecorder attaches a typed event recorder for timeline rendering
// and post-hoc analysis. Recorders are not attached during RunMany
// (concurrent runs would interleave their events).
func WithRecorder(rec *trace.Recorder) Option {
	return func(r *Runner) { r.recorder = rec }
}

// WithObserver streams per-event callbacks (arrivals, completions,
// cross-board switches) while scenarios run.
func WithObserver(fn Observer) Option {
	return func(r *Runner) { r.observer = fn }
}

// NewRunner builds a runner with the given options.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Run executes one scenario with the default runner.
func Run(s Scenario) (*Result, error) { return NewRunner().Run(s) }

// Run executes one scenario to completion.
func (r *Runner) Run(s Scenario) (*Result, error) { return r.run(s, false, nil) }

// sequenceCache shares generated workload sequences between the runs
// of one RunMany/Sweep call: scenarios agreeing on every
// generation-relevant field (workloadKey) reuse one immutable
// Sequence. Instantiate builds fresh App state per run, so sharing the
// arrival list across concurrent kernels is safe.
type sequenceCache struct {
	mu sync.Mutex
	m  map[workloadKey]*workload.Sequence
}

func newSequenceCache() *sequenceCache {
	return &sequenceCache{m: make(map[workloadKey]*workload.Sequence)}
}

// sequence resolves a defaulted scenario's workload through the cache;
// a nil cache or a non-generated workload falls through to the
// scenario's own resolution.
func (c *sequenceCache) sequence(s Scenario) (*workload.Sequence, error) {
	if c == nil {
		return s.sequence()
	}
	key, ok := s.workloadKey()
	if !ok {
		return s.sequence()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq, hit := c.m[key]; hit {
		return seq, nil
	}
	seq, err := s.sequence()
	if err != nil {
		return nil, err
	}
	c.m[key] = seq
	return seq, nil
}

func (r *Runner) run(s Scenario, parallel bool, cache *sequenceCache) (*Result, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var seq *workload.Sequence
	if len(s.Tenants) == 0 {
		// Tenant farms generate one sequence per tenant inside runFarm;
		// everything else resolves (and possibly shares) one sequence.
		var err error
		seq, err = cache.sequence(s)
		if err != nil {
			return nil, err
		}
	}
	switch s.Topology {
	case TopologySingle:
		return r.runSingle(s, seq, parallel)
	case TopologyCluster:
		return r.runCluster(s, seq, parallel)
	case TopologyFarm:
		return r.runFarm(s, seq, parallel)
	default:
		return nil, fmt.Errorf("versaslot: unknown topology %q", s.Topology)
	}
}

func (r *Runner) emit(ev Event) {
	if r.observer == nil {
		return
	}
	r.obsMu.Lock()
	r.observer(ev)
	r.obsMu.Unlock()
}

// observeEngine chains the runner's observer onto an engine's lifecycle
// hooks, preserving any hooks the topology already installed.
func (r *Runner) observeEngine(scenario string, e *sched.Engine) {
	if r.observer == nil {
		return
	}
	board := e.Board.ID
	prevArrived := e.OnAppArrived
	e.OnAppArrived = func(a *appmodel.App) {
		if prevArrived != nil {
			prevArrived(a)
		}
		r.emit(Event{Scenario: scenario, At: e.Now(), Kind: "arrival", AppID: a.ID, Spec: a.Spec.Name, Batch: a.Batch, Board: board})
	}
	prev := e.OnAppFinished
	e.OnAppFinished = func(a *appmodel.App) {
		if prev != nil {
			prev(a)
		}
		r.emit(Event{Scenario: scenario, At: e.Now(), Kind: "finish", AppID: a.ID, Spec: a.Spec.Name, Batch: a.Batch, Board: board})
	}
}

// attachFaults wires the scenario's faults block (if any) onto the
// topology. A nil/empty block attaches nothing, so fault-free runs
// stay byte-identical.
func attachFaults(s Scenario, t *fault.Target) error {
	if s.Faults == nil {
		return nil
	}
	if err := fault.Attach(t, *s.Faults, s.Seed); err != nil {
		return fmt.Errorf("versaslot: %w", err)
	}
	return nil
}

func (r *Runner) attachDiagnostics(scenario string, e *sched.Engine, parallel bool) {
	if r.traceFn != nil && !parallel {
		e.Trace = r.traceFn
	}
	if r.recorder != nil && !parallel {
		e.Recorder = r.recorder
	}
	r.observeEngine(scenario, e)
}

func (r *Runner) runSingle(s Scenario, seq *workload.Sequence, parallel bool) (*Result, error) {
	var sys *core.System
	policyName := s.Policy
	if s.BigSlots > 0 || s.LittleSlots > 0 {
		sys = core.NewCustomSystem(s.BigSlots, s.LittleSlots, s.Seed, s.Params)
		policyName = "versaslot-ol"
		if s.BigSlots > 0 {
			policyName = "versaslot-bl"
		}
	} else {
		var platform *fabric.Platform
		if s.Platform != nil {
			var err error
			platform, err = s.Platform.Resolve()
			if err != nil {
				return nil, fmt.Errorf("versaslot: %w", err)
			}
		}
		var err error
		sys, err = core.NewPlatformSystem(s.Policy, platform, s.Seed, s.Params)
		if err != nil {
			return nil, err
		}
	}
	streamCfg, streaming := s.streamConfig()
	if streaming {
		sys.Engine.Col.EnableStreaming(streamCfg)
	}
	r.attachDiagnostics(s.Name, sys.Engine, parallel)
	apps, err := seq.Instantiate(0)
	if err != nil {
		return nil, err
	}
	boardPlatform := sys.Engine.Board.Platform
	if !boardPlatform.Virtual {
		for _, a := range apps {
			if !bundle.Hostable(a.Spec, boardPlatform) {
				return nil, fmt.Errorf("versaslot: app %v (%s) fits no slot class of platform %q",
					a, a.Spec.Name, boardPlatform.Name)
			}
		}
	}
	if err := attachFaults(s, &fault.Target{
		K:       sys.Kernel,
		Engines: []*sched.Engine{sys.Engine},
	}); err != nil {
		return nil, err
	}
	res, err := sys.Execute(seq.Condition, apps)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Scenario:    s.Name,
		Topology:    TopologySingle,
		Policy:      canonicalName(policyName),
		PolicyTitle: PolicyTitle(policyName),
		Platform:    boardPlatform.Name,
		Condition:   seq.Condition,
		Seed:        s.Seed,
		Summary:     res.Summary,
		Samples:     res.Samples,
		BySpec:      res.BySpec,
		CacheHits:   res.CacheHits,
		CacheMisses: res.CacheMisses,
		LaunchWait:  sys.Engine.Cores.Sched.Stats().WaitByName["launch"],
		Makespan:    sys.Engine.Col.EndTime(),
		TimeSeries:  sys.Engine.Col.Windows(),
	}
	if streaming {
		out.MetricsMode = "stream"
	}
	return out, nil
}

// clusterModes is the fixed pair-mode iteration order that keeps
// multi-board metric merging deterministic.
var clusterModes = []migrate.Mode{migrate.Base, migrate.Boost}

// pairPlatformsOf reports the resolved platform assignment of a pair.
func pairPlatformsOf(cl *cluster.Cluster) cluster.PairPlatforms {
	return cluster.PairPlatforms{
		Base:  cl.Platform(migrate.Base).Name,
		Boost: cl.Platform(migrate.Boost).Name,
	}
}

func (r *Runner) runCluster(s Scenario, seq *workload.Sequence, parallel bool) (*Result, error) {
	cl, err := cluster.NewCluster(s.clusterConfig())
	if err != nil {
		return nil, fmt.Errorf("versaslot: %w", err)
	}
	streamCfg, streaming := s.streamConfig()
	for _, mode := range clusterModes {
		if streaming {
			cl.Engine(mode).Col.EnableStreaming(streamCfg)
		}
		r.attachDiagnostics(s.Name, cl.Engine(mode), parallel)
	}
	r.observeSwitches(s.Name, cl)
	if err := cl.Inject(seq); err != nil {
		return nil, err
	}
	clEngines := make([]*sched.Engine, 0, len(clusterModes))
	for _, mode := range clusterModes {
		clEngines = append(clEngines, cl.Engine(mode))
	}
	if err := attachFaults(s, &fault.Target{
		K:         cl.K,
		Engines:   clEngines,
		Pairs:     []*cluster.Cluster{cl},
		Quiescent: cl.Quiescent,
	}); err != nil {
		return nil, err
	}
	sum := cl.Run()
	out := &Result{
		Scenario:       s.Name,
		Topology:       TopologyCluster,
		Policy:         "versaslot-switching",
		PolicyTitle:    "VersaSlot Switching",
		Condition:      seq.Condition,
		Seed:           s.Seed,
		PairPlatforms:  []cluster.PairPlatforms{pairPlatformsOf(cl)},
		Switches:       sum.Switches,
		MeanSwitchTime: sum.MeanSwitchTime,
		MigratedApps:   sum.MigratedApps,
		SwitchTrace:    sum.Trace,
	}
	if streaming {
		out.MetricsMode = "stream"
	}
	out.fillFromEngines(clEngines)
	return out, nil
}

func (r *Runner) runFarm(s Scenario, seq *workload.Sequence, parallel bool) (*Result, error) {
	f, err := cluster.NewFarm(s.farmConfig())
	if err != nil {
		return nil, fmt.Errorf("versaslot: %w", err)
	}
	var engines []*sched.Engine
	var pairPlatforms []cluster.PairPlatforms
	// Sharded runs advance pairs on worker goroutines: the single-writer
	// trace/recorder sinks are disabled exactly as in parallel sweeps
	// (observers stay attached — they serialize behind a mutex). The
	// farm's resolved count decides, not s.Shards: zero auto-selects
	// from the fleet size and GOMAXPROCS.
	diagParallel := parallel || f.ShardCount() > 1
	streamCfg, streaming := s.streamConfig()
	for _, pair := range f.Pairs {
		for _, mode := range clusterModes {
			if streaming {
				pair.Engine(mode).Col.EnableStreaming(streamCfg)
			}
			r.attachDiagnostics(s.Name, pair.Engine(mode), diagParallel)
			engines = append(engines, pair.Engine(mode))
		}
		pairPlatforms = append(pairPlatforms, pairPlatformsOf(pair))
		r.observeSwitches(s.Name, pair)
	}
	// The orchestrator (multi-tenant admission and/or autoscaling)
	// chains its per-pair accounting hooks after the diagnostics
	// hooks, then owns injection for tenant workloads.
	var orch *orchestrator.Orchestrator
	if len(s.Tenants) > 0 || s.Autoscale != nil {
		orch, err = orchestrator.New(f, orchestrator.Config{
			Tenants:   s.Tenants,
			Autoscale: s.Autoscale,
		})
		if err != nil {
			return nil, fmt.Errorf("versaslot: %w", err)
		}
	}
	condition := ""
	if len(s.Tenants) > 0 {
		seqs, err := s.tenantSequences()
		if err != nil {
			return nil, err
		}
		if err := orch.InjectTenants(seqs); err != nil {
			return nil, fmt.Errorf("versaslot: %w", err)
		}
		condition = s.Condition
	} else {
		if err := f.Inject(seq); err != nil {
			return nil, err
		}
		condition = seq.Condition
	}
	if err := attachFaults(s, &fault.Target{
		K:         f.K,
		Engines:   engines,
		Pairs:     f.Pairs,
		Farm:      f,
		Quiescent: f.Quiescent,
		// Fault chains are part of the farm's control plane: at their
		// priority they land between the same pair events in sharded
		// and sequential runs, and every strike stamps its pair's
		// lazily-advanced clock first.
		Pri:   sim.PriFarmControl,
		Touch: f.TouchPair,
	}); err != nil {
		return nil, err
	}
	if orch != nil {
		orch.Start()
	}
	sum := f.Run()
	out := &Result{
		Scenario:          s.Name,
		Topology:          TopologyFarm,
		Policy:            "versaslot-switching",
		PolicyTitle:       "VersaSlot Switching Farm",
		Condition:         condition,
		Seed:              s.Seed,
		PairPlatforms:     pairPlatforms,
		Dispatcher:        f.Dispatcher(),
		Switches:          sum.Switches,
		MeanSwitchTime:    sum.MeanSwitchTime,
		MigratedApps:      sum.MigratedApps,
		SwitchTrace:       sum.Trace,
		Routed:            f.Routed(),
		PairStats:         sum.PairStats,
		CrossMigrations:   sum.CrossSwitches,
		CrossMigratedApps: sum.CrossMigratedApps,
		MeanCrossTime:     sum.MeanCrossTime,
	}
	if streaming {
		out.MetricsMode = "stream"
	}
	if orch != nil {
		out.Tenants = orch.TenantStats()
		out.Autoscale = orch.AutoscaleStats()
	}
	out.fillFromEngines(engines)
	return out, nil
}

func (r *Runner) observeSwitches(scenario string, cl *cluster.Cluster) {
	if r.observer == nil {
		return
	}
	board := cl.Engine(migrate.Base).Board.ID
	cl.OnSwitch = func(from, to migrate.Mode) {
		r.emit(Event{Scenario: scenario, At: cl.K.Now(), Kind: "switch", Board: board,
			From: cl.Platform(from).Title, To: cl.Platform(to).Title})
	}
}

func canonicalName(name string) string {
	if reg, ok := sched.Lookup(name); ok {
		return reg.Name
	}
	return name
}
