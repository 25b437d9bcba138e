package versaslot

import (
	"fmt"
	"sync"

	"versaslot/internal/cluster"
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
// options) is ready to use; options attach views of the run's board
// events: trace lines, a typed recording and streaming observers.
type Runner struct {
	traceFn  func(format string, args ...any)
	recorder *trace.Recorder
	observer Observer
	obsMu    sync.Mutex
}

// Option configures a Runner.
type Option func(*Runner)

// WithTrace hands fn each board event's trace line (PR request, done,
// retry and abort, item launch, app finish and crash, slot fault and
// recovery), one format string per kind (see trace.Event.Line). A farm
// runs each pair on its own kernel up to the next control instant
// (arrival dispatch, rebalance tick, rack delivery, fault strike), so
// its lines come grouped per pair between control instants, each pair's
// in time order. Traces are not attached during RunMany.
func WithTrace(fn func(format string, args ...any)) Option {
	return func(r *Runner) { r.traceFn = fn }
}

// WithRecorder copies every board event, switches included, into rec
// for timeline rendering and post-hoc analysis. Recorders are not
// attached during RunMany (concurrent runs would interleave their
// events).
func WithRecorder(rec *trace.Recorder) Option {
	return func(r *Runner) { r.recorder = rec }
}

// WithObserver streams the board events an Observer sees (arrivals,
// completions, cross-board switches) while scenarios run, RunMany
// included.
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
		return s.Sequence()
	}
	key, ok := s.workloadKey()
	if !ok {
		return s.Sequence()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq, hit := c.m[key]; hit {
		return seq, nil
	}
	seq, err := s.Sequence()
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
	fr, err := r.newFarmRun(s, seq, parallel)
	if err != nil {
		return nil, err
	}
	return fr.result(), nil
}

// runSink is a run's one event sink: every board the run builds emits
// to it, and it renders each event for the runner's trace, recorder and
// observer.
type runSink struct {
	r        *Runner
	scenario string
	trace    func(format string, args ...any)
	rec      *trace.Recorder
}

// sink composes the run's sink from the runner's options, or returns
// nil when nothing listens. Traces and recorders are left out of
// parallel runs.
func (r *Runner) sink(scenario string, parallel bool) trace.Sink {
	fn, rec := r.traceFn, r.recorder
	if parallel {
		fn, rec = nil, nil
	}
	if fn == nil && rec == nil && r.observer == nil {
		return nil
	}
	return &runSink{r: r, scenario: scenario, trace: fn, rec: rec}
}

func (s *runSink) Emit(ev trace.Event) {
	if s.trace != nil {
		if format, args := ev.Line(); format != "" {
			s.trace(format, args...)
		}
	}
	s.rec.Record(ev)
	if s.r.observer == nil {
		return
	}
	out := Event{Scenario: s.scenario, At: ev.At, Board: ev.Board}
	switch ev.Kind {
	case trace.AppArrive:
		out.Kind = "arrival"
	case trace.AppFinish:
		out.Kind = "finish"
	case trace.Switch:
		out.Kind, out.From, out.To = "switch", ev.From, ev.To
	default:
		return
	}
	if a := ev.App; a != nil {
		out.AppID, out.Spec, out.Batch = a.ID, a.Spec.Name, a.Batch
	}
	s.r.obsMu.Lock()
	s.r.observer(out)
	s.r.obsMu.Unlock()
}

// attachFaults wires the scenario's faults block onto the topology.
// Callers attach nothing for a nil block, so fault-free runs stay
// byte-identical and build no target.
func attachFaults(s Scenario, t *fault.Target) error {
	if err := fault.Attach(t, *s.Faults, s.Seed); err != nil {
		return fmt.Errorf("versaslot: %w", err)
	}
	return nil
}

// boardHook returns what finishes every board a scenario builds:
// streaming metrics when the scenario asks for them, then the run's
// event sink. The farm installs it as its build hook, so each board
// gets it when it is built and an observer never forces one to be
// built.
func (r *Runner) boardHook(s Scenario, parallel bool) func(*sched.Engine) {
	streamCfg, streaming := s.streamConfig()
	sink := r.sink(s.Name, parallel)
	return func(e *sched.Engine) {
		if streaming {
			e.Col.EnableStreaming(streamCfg)
		}
		e.Events = sink
	}
}

// clusterModes is the fixed pair-mode iteration order that keeps
// multi-board metric merging deterministic.
var clusterModes = []migrate.Mode{migrate.Base, migrate.Boost}

// farmRun is a scenario ready to run: the farm with its hooks,
// orchestrator, workload and faults attached.
type farmRun struct {
	s         Scenario
	f         *cluster.Farm
	orch      *orchestrator.Orchestrator
	condition string
}

// newFarmRun builds a validated, defaulted scenario up to the point
// where its farm runs. A single board is a farm of one fixed pair.
func (r *Runner) newFarmRun(s Scenario, seq *workload.Sequence, parallel bool) (farmRun, error) {
	cfg, err := s.farmConfig()
	if err != nil {
		return farmRun{}, err
	}
	f, err := cluster.NewFarm(cfg)
	if err != nil {
		return farmRun{}, fmt.Errorf("versaslot: %w", err)
	}
	f.AddBuildHook(r.boardHook(s, parallel))
	if s.Topology == TopologySingle {
		// The board's fault chains run on its own kernel and are
		// attached before its apps arrive, as on a standalone board.
		if p := f.Pairs[0]; s.Faults != nil {
			if err := attachFaults(s, &fault.Target{K: p.K, Engines: []*sched.Engine{p.Engine(p.ActiveMode())}}); err != nil {
				return farmRun{}, err
			}
		}
		if err := f.Inject(seq); err != nil {
			return farmRun{}, fmt.Errorf("versaslot: %w", err)
		}
		return farmRun{s: s, f: f, condition: seq.Condition}, nil
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
			return farmRun{}, fmt.Errorf("versaslot: %w", err)
		}
	}
	condition := s.Condition
	if len(s.Tenants) > 0 {
		seqs, err := s.tenantSequences()
		if err != nil {
			return farmRun{}, err
		}
		if err := orch.InjectTenants(seqs); err != nil {
			return farmRun{}, fmt.Errorf("versaslot: %w", err)
		}
	} else {
		if err := f.Inject(seq); err != nil {
			return farmRun{}, fmt.Errorf("versaslot: %w", err)
		}
		condition = seq.Condition
	}
	if s.Faults != nil {
		// Fault chains are part of the farm's control plane: at their
		// priority they run before the pair events of their instant,
		// and every strike stamps its pair's lazily advanced clock
		// first.
		if err := attachFaults(s, &fault.Target{K: f.K, Pairs: f.Pairs, Farm: f, Quiescent: f.Quiescent,
			Pri: sim.PriFarmControl, Touch: f.TouchPair}); err != nil {
			return farmRun{}, err
		}
	}
	if orch != nil {
		orch.Start()
	}
	return farmRun{s: s, f: f, orch: orch, condition: condition}, nil
}

// result runs the farm to the end (a farm stepped to the end only
// merges) and reports it.
func (fr *farmRun) result() *Result {
	s, f, orch := fr.s, fr.f, fr.orch
	sum := f.Run()
	if s.Topology == TopologySingle {
		p := f.Pairs[0]
		out := &Result{Scenario: s.Name, Topology: s.Topology, Policy: p.Cfg.Policy.Name, PolicyTitle: p.Cfg.Policy.Title,
			Platform: p.Platform(p.ActiveMode()).Name, Condition: fr.condition, Seed: s.Seed}
		out.setMetricsMode(s)
		out.fillFromBoards(f.Pairs)
		return out
	}
	pairPlatforms := make([]cluster.PairPlatforms, 0, len(f.Pairs))
	for _, pair := range f.Pairs {
		pairPlatforms = append(pairPlatforms, cluster.PairPlatforms{
			Base: pair.Platform(migrate.Base).Name, Boost: pair.Platform(migrate.Boost).Name})
	}
	out := &Result{
		Scenario:          s.Name,
		Topology:          s.Topology,
		Policy:            "versaslot-switching",
		PolicyTitle:       "VersaSlot Switching Farm",
		Condition:         fr.condition,
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
	if s.Topology == TopologyCluster {
		// A cluster is a farm of one pair, labelled as the pair alone:
		// it has no dispatcher and no per-pair breakdown.
		out.PolicyTitle = "VersaSlot Switching"
		out.Dispatcher, out.Routed, out.PairStats = "", nil, nil
	}
	out.setMetricsMode(s)
	if orch != nil {
		out.Tenants = orch.TenantStats()
		out.Autoscale = orch.AutoscaleStats()
	}
	out.fillFromBoards(f.Pairs)
	return out
}
