package versaslot

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"versaslot/internal/cluster"
	"versaslot/internal/fabric"
	"versaslot/internal/fault"
	"versaslot/internal/metrics"
	"versaslot/internal/orchestrator"
	"versaslot/internal/rng"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// Topology selects the system shape a scenario runs on.
type Topology string

const (
	// TopologySingle is one board driven by one policy, run as a farm
	// of one fixed pair: no spare, no switching, no dispatcher.
	TopologySingle Topology = "single"
	// TopologyCluster is the paper's two-board switching pair with
	// D_switch-triggered live migration, run as a farm of one pair.
	TopologyCluster Topology = "cluster"
	// TopologyFarm is K switching pairs behind a least-loaded
	// dispatcher.
	TopologyFarm Topology = "farm"
)

// Scenario declaratively describes one run: topology, policy (by
// registered name), workload (by congestion condition, inline
// sequence, or file), parameter overrides, and seed. The zero value
// plus defaults reproduces the paper's standard-condition Big.Little
// run. Scenarios marshal to/from JSON unchanged, so a run is fully
// reproducible from the serialized artifact.
type Scenario struct {
	// Name labels the scenario in results and sweep output.
	Name string `json:"name,omitempty"`
	// Topology is single (default), cluster, or farm. Every topology
	// runs as a farm; a single board is a farm of one fixed pair.
	Topology Topology `json:"topology,omitempty"`
	// Policy is a registered policy name (default "versaslot-bl", or
	// the variant a platform block's shape calls for); it drives the
	// single topology's one board. Single topology only — cluster and
	// farm boards run the VersaSlot policy their platform calls for.
	Policy string `json:"policy,omitempty"`
	// Condition names the congestion regime used to generate the
	// workload (default "standard"); ignored when Workload or
	// WorkloadFile is set.
	Condition string `json:"condition,omitempty"`
	// Apps sizes the generated sequence (default 20).
	Apps int `json:"apps,omitempty"`
	// Seed seeds both workload generation and the simulation kernel
	// (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Arrival selects a registered arrival process (uniform, poisson,
	// mmpp, diurnal, phased, closed-loop, trace, or a third-party
	// registration) with its parameters; zero-valued rate parameters
	// are filled from Condition, so {"process": "mmpp"} inherits the
	// regime. Nil keeps the paper's classic uniform/Poisson generator.
	// Mutually exclusive with the legacy Poisson flag and the
	// IntervalLo/IntervalHi overrides.
	Arrival *workload.ArrivalSpec `json:"arrival,omitempty"`
	// Workload inlines an explicit arrival sequence, overriding
	// Condition/Apps generation.
	Workload *workload.Sequence `json:"workload,omitempty"`
	// WorkloadFile loads the sequence from a JSON file at run time.
	WorkloadFile string `json:"workload_file,omitempty"`
	// IntervalLo/IntervalHi (nanoseconds) override the condition's
	// inter-arrival bounds (the Fig. 8 long workloads use this).
	IntervalLo sim.Duration `json:"interval_lo,omitempty"`
	IntervalHi sim.Duration `json:"interval_hi,omitempty"`
	// Poisson draws exponential inter-arrival times instead of the
	// paper's uniform intervals.
	Poisson bool `json:"poisson,omitempty"`
	// Params overrides hardware/control-plane constants; nil means
	// sched.DefaultParams(). A JSON params block decodes over the
	// defaults, so it names only the constants it changes.
	Params *sched.Params `json:"params,omitempty"`
	// Platform selects the single board's platform: a registry
	// reference ({"ref": "u250-quad"}) or an inline custom platform
	// (name, area budget, ordered class mix). Nil means the policy's
	// declared platform. Single topology only; for cluster/farm
	// platforms use PairPlatforms.
	Platform *fabric.PlatformSpec `json:"platform,omitempty"`
	// BigSlots/LittleSlots select a custom single-board slot mix (the
	// paper's "any Big/Little configuration" extension); both zero
	// means the policy's declared floorplan.
	BigSlots    int `json:"big_slots,omitempty"`
	LittleSlots int `json:"little_slots,omitempty"`
	// Pairs is the farm size (default 2; farm topology only).
	Pairs int `json:"pairs,omitempty"`
	// PairPlatforms assigns registered platforms to switching pairs
	// (cluster: the single pair; farm: entry i configures pair i,
	// missing entries keep the paper's Only.Little/Big.Little pair).
	// A farm can therefore mix board types; dispatch then routes each
	// application only to pairs whose slot classes can hold it.
	PairPlatforms []cluster.PairPlatforms `json:"pair_platforms,omitempty"`
	// Dispatcher selects the farm's arrival dispatcher by registered
	// name (default "least-loaded"; farm topology only). See
	// Dispatchers() for the registry.
	Dispatcher string `json:"dispatcher,omitempty"`
	// RebalanceEvery (nanoseconds), when positive, runs the farm's
	// cross-pair rebalancer on that virtual-time cadence: sustained
	// load imbalance live-migrates queued applications between pairs
	// over the rack link. Zero disables rebalancing (farm only).
	RebalanceEvery sim.Duration `json:"rebalance_every,omitempty"`
	// RebalanceGap is the minimum unfinished-app gap between the most-
	// and least-loaded pairs that triggers a cross-pair migration.
	// Zero means the default of 2; a gap of 1 is honored but can
	// ping-pong a single queued app (farm only).
	RebalanceGap int `json:"rebalance_gap,omitempty"`
	// Shards is kept so scenarios that set it still decode. A farm
	// runs every pair on its own kernel from one goroutine; 0 and 1
	// are accepted (farm topology only), anything larger is an error.
	//
	// Deprecated: the farm has one executor; leave Shards unset.
	Shards int `json:"shards,omitempty"`
	// ThresholdUp/ThresholdDown override the Schmitt-trigger levels
	// (cluster/farm; zero means the paper's defaults).
	ThresholdUp   float64 `json:"threshold_up,omitempty"`
	ThresholdDown float64 `json:"threshold_down,omitempty"`
	// WindowUpdates is the D_switch re-evaluation cadence (default 4).
	WindowUpdates int `json:"window_updates,omitempty"`
	// Smoothing is the EWMA factor on raw D_switch samples.
	Smoothing float64 `json:"smoothing,omitempty"`
	// Faults configures the chaos subsystem: a fault-axis seed plus a
	// list of registered injectors (slot-fail, board-fail, pr-flaky,
	// straggler, checkpoint, or third-party registrations). Nil or an
	// empty injector list disables fault injection entirely and the run
	// stays byte-identical to a fault-free build. See FaultInjectors()
	// for the registry.
	Faults *fault.Spec `json:"faults,omitempty"`
	// Tenants declares a multi-tenant workload (farm topology only):
	// each tenant brings its own arrival process (seeded from the
	// scenario seed plus the tenant name), quota, release priority,
	// over-quota policy (throttle or reject), and SLO. Arrivals then
	// pass through the orchestrator's admission controller instead of
	// being injected directly, and the result gains a per-tenant
	// ledger and SLO-attainment breakdown. Mutually exclusive with
	// Workload/WorkloadFile/Arrival and the legacy poisson/interval
	// overrides (each tenant carries its own arrival block).
	Tenants []orchestrator.TenantSpec `json:"tenants,omitempty"`
	// Autoscale enables the deterministic autoscaler (farm topology
	// only): the farm is built with Max pairs of which Pairs start
	// online and Max - Pairs start standby, and windowed load
	// commissions or drains pairs inside [Min, Max]. Requires
	// Min <= Pairs <= Max after defaulting.
	Autoscale *orchestrator.AutoscaleSpec `json:"autoscale,omitempty"`
	// Metrics selects the metrics pipeline. Nil (or mode "exact")
	// retains every per-app sample — the historic default, byte-
	// identical output. Mode "stream" folds samples into bounded-memory
	// percentile sketches on arrival and adds a windowed time-series to
	// the result, so memory stays flat over arbitrarily long horizons.
	Metrics *MetricsSpec `json:"metrics,omitempty"`
}

// MetricsSpec configures the streaming metrics mode.
type MetricsSpec struct {
	// Mode is "exact" (default) or "stream".
	Mode string `json:"mode"`
	// Window is the time-series bucket width in nanoseconds (stream
	// mode; default 10 simulated seconds).
	Window sim.Duration `json:"window,omitempty"`
	// MaxWindows bounds the retained time-series ring (stream mode;
	// default 64). Older windows roll off; their samples remain in the
	// run-level sketch.
	MaxWindows int `json:"max_windows,omitempty"`
}

// withDefaults fills unset fields with the paper's defaults.
func (s Scenario) withDefaults() Scenario {
	if s.Topology == "" {
		s.Topology = TopologySingle
	}
	if s.Policy == "" && s.BigSlots == 0 && s.LittleSlots == 0 {
		if s.Platform != nil {
			// The platform shape picks the matching VersaSlot variant
			// (or the exclusive baseline on a virtual platform).
			if p, err := s.Platform.Resolve(); err == nil {
				s.Policy = "baseline"
				if !p.Virtual {
					s.Policy = sched.VersaSlotFor(p).Name
				}
			}
		} else {
			s.Policy = "versaslot-bl"
		}
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

// Validate checks the scenario against the policy registry and the
// condition table without running it.
func (s Scenario) Validate() error {
	s = s.withDefaults()
	switch s.Topology {
	case TopologySingle, TopologyCluster, TopologyFarm:
	default:
		return fmt.Errorf("versaslot: unknown topology %q (want single|cluster|farm)", s.Topology)
	}
	if s.BigSlots < 0 || s.LittleSlots < 0 {
		return fmt.Errorf("versaslot: negative slot counts %d/%d", s.BigSlots, s.LittleSlots)
	}
	custom := s.BigSlots > 0 || s.LittleSlots > 0
	if custom && s.Topology != TopologySingle {
		return fmt.Errorf("versaslot: custom slot mix is single-topology only")
	}
	if custom && s.Policy != "" {
		return fmt.Errorf("versaslot: policy %q conflicts with a custom slot mix (the mix implies the VersaSlot policy)", s.Policy)
	}
	if s.Platform != nil {
		if s.Topology != TopologySingle {
			return fmt.Errorf("versaslot: the platform block is single-topology only (use pair_platforms for cluster/farm)")
		}
		if custom {
			return fmt.Errorf("versaslot: platform block conflicts with the legacy big_slots/little_slots mix (pick one)")
		}
	}
	if len(s.PairPlatforms) > 0 {
		switch s.Topology {
		case TopologyCluster:
			if len(s.PairPlatforms) > 1 {
				return fmt.Errorf("versaslot: cluster topology has one pair; got %d pair_platforms entries", len(s.PairPlatforms))
			}
		case TopologyFarm:
			// With autoscaling the farm is built out to the autoscale
			// max (standby pairs included), so platform assignments may
			// cover the full fleet.
			built := s.Pairs
			if s.Autoscale != nil && s.Autoscale.Defaulted().Max > built {
				built = s.Autoscale.Defaulted().Max
			}
			if len(s.PairPlatforms) > built {
				return fmt.Errorf("versaslot: %d pair_platforms entries for %d pairs", len(s.PairPlatforms), built)
			}
		default:
			return fmt.Errorf("versaslot: pair_platforms is cluster/farm-topology only (topology %q)", s.Topology)
		}
		for i, pp := range s.PairPlatforms {
			for _, name := range []string{pp.Base, pp.Boost} {
				if name == "" {
					continue
				}
				p, ok := fabric.LookupPlatform(name)
				if !ok {
					return fmt.Errorf("versaslot: pair %d: unknown platform %q (registered: %v)",
						i, name, fabric.PlatformNames())
				}
				if p.Virtual {
					return fmt.Errorf("versaslot: pair %d: platform %q is the monolithic baseline template; switching pairs need DPR slots", i, name)
				}
			}
		}
	}
	if custom {
		if area := 2*s.BigSlots + s.LittleSlots; area > 8 {
			return fmt.Errorf("versaslot: slot mix %dB+%dL needs %d Little-equivalents; the fabric holds 8",
				s.BigSlots, s.LittleSlots, area)
		}
		if s.LittleSlots == 0 {
			return fmt.Errorf("versaslot: slot mix %dB+0L has no Little slots; non-bundleable applications (e.g. LeNet) could never execute",
				s.BigSlots)
		}
	}
	if s.Topology == TopologySingle {
		if _, _, err := s.board(); err != nil {
			return err
		}
	}
	if s.Workload == nil && s.WorkloadFile == "" {
		if _, err := workload.ParseCondition(s.Condition); err != nil {
			return fmt.Errorf("versaslot: %w", err)
		}
		if s.Apps < 0 {
			return fmt.Errorf("versaslot: negative app count %d", s.Apps)
		}
	}
	if (s.IntervalLo != 0 || s.IntervalHi != 0) &&
		!(s.IntervalLo > 0 && s.IntervalHi >= s.IntervalLo) {
		return fmt.Errorf("versaslot: invalid interval override [%v, %v] (need 0 < lo <= hi)",
			s.IntervalLo, s.IntervalHi)
	}
	if s.Arrival != nil {
		if s.Workload != nil || s.WorkloadFile != "" {
			return fmt.Errorf("versaslot: arrival process conflicts with an explicit workload (pick one)")
		}
		if s.Poisson || s.IntervalLo != 0 || s.IntervalHi != 0 {
			return fmt.Errorf("versaslot: arrival process conflicts with the legacy poisson/interval overrides (put the rates in the arrival block)")
		}
		cond, err := workload.ParseCondition(s.Condition)
		if err != nil {
			return fmt.Errorf("versaslot: %w", err)
		}
		if err := s.Arrival.WithCondition(cond).Validate(); err != nil {
			return fmt.Errorf("versaslot: %w", err)
		}
	}
	if s.Params != nil {
		if err := s.Params.Validate(); err != nil {
			return fmt.Errorf("versaslot: %w", err)
		}
	}
	if s.Pairs < 0 {
		return fmt.Errorf("versaslot: negative pair count %d", s.Pairs)
	}
	farmOnly := s.Dispatcher != "" || s.RebalanceEvery != 0 || s.RebalanceGap != 0 || s.Shards != 0
	if farmOnly && s.Topology != TopologyFarm {
		return fmt.Errorf("versaslot: dispatcher/rebalance/shards knobs are farm-topology only (topology %q)", s.Topology)
	}
	if s.Shards < 0 || s.Shards > 1 {
		return fmt.Errorf("versaslot: shards %d: a farm has one executor (want 0 or 1)", s.Shards)
	}
	if s.Topology != TopologySingle {
		if cfg, _ := s.farmConfig(); cfg.Pair.ThresholdDown >= cfg.Pair.ThresholdUp {
			return fmt.Errorf("versaslot: threshold_down %g must be below threshold_up %g (after defaults)",
				cfg.Pair.ThresholdDown, cfg.Pair.ThresholdUp)
		}
	}
	if s.Dispatcher != "" {
		if _, ok := cluster.LookupDispatcher(s.Dispatcher); !ok {
			return fmt.Errorf("versaslot: unknown dispatcher %q (registered: %v)",
				s.Dispatcher, cluster.DispatcherNames())
		}
	}
	if s.RebalanceEvery < 0 {
		return fmt.Errorf("versaslot: negative rebalance interval %v", s.RebalanceEvery)
	}
	if s.RebalanceGap < 0 {
		return fmt.Errorf("versaslot: negative rebalance gap %d", s.RebalanceGap)
	}
	if (len(s.Tenants) > 0 || s.Autoscale != nil) && s.Topology != TopologyFarm {
		return fmt.Errorf("versaslot: tenants/autoscale blocks are farm-topology only (topology %q)", s.Topology)
	}
	if len(s.Tenants) > 0 {
		if s.Workload != nil || s.WorkloadFile != "" || s.Arrival != nil {
			return fmt.Errorf("versaslot: tenants conflict with a scenario-level workload/arrival block (each tenant carries its own)")
		}
		if s.Poisson || s.IntervalLo != 0 || s.IntervalHi != 0 {
			return fmt.Errorf("versaslot: tenants conflict with the legacy poisson/interval overrides (put the rates in the tenant arrival blocks)")
		}
		names := make(map[string]bool, len(s.Tenants))
		for _, t := range s.Tenants {
			if err := t.Validate(); err != nil {
				return fmt.Errorf("versaslot: %w", err)
			}
			if names[t.Name] {
				return fmt.Errorf("versaslot: duplicate tenant name %q", t.Name)
			}
			names[t.Name] = true
			condName := s.Condition
			if t.Condition != "" {
				condName = t.Condition
			}
			cond, err := workload.ParseCondition(condName)
			if err != nil {
				return fmt.Errorf("versaslot: tenant %q: %w", t.Name, err)
			}
			if t.Arrival != nil {
				if err := t.Arrival.WithCondition(cond).Validate(); err != nil {
					return fmt.Errorf("versaslot: tenant %q: %w", t.Name, err)
				}
			}
		}
	}
	if s.Autoscale != nil {
		a := s.Autoscale.Defaulted()
		if err := a.Validate(); err != nil {
			return fmt.Errorf("versaslot: %w", err)
		}
		if s.Pairs > a.Max || s.Pairs < a.Min {
			return fmt.Errorf("versaslot: %d initial pairs outside the autoscale range [%d, %d] (pairs is the initial online count; the farm is built out to max)",
				s.Pairs, a.Min, a.Max)
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return fmt.Errorf("versaslot: %w", err)
		}
		// The baseline's full reconfiguration never streams partial
		// bitstreams, so a pr-flaky injector would be silently ignored.
		if reg, ok := sched.Lookup(s.Policy); ok && reg.Kind == sched.KindBaseline {
			for _, inj := range s.Faults.Injectors {
				if r, ok := fault.Lookup(inj.Kind); ok && r.Name == fault.KindPRFlaky {
					return fmt.Errorf("versaslot: the %s injector does not apply to policy %q (its full reconfiguration streams no partial bitstreams)",
						fault.KindPRFlaky, s.Policy)
				}
			}
		}
	}
	if s.Metrics != nil {
		switch s.Metrics.Mode {
		case "", "exact":
			if s.Metrics.Window != 0 || s.Metrics.MaxWindows != 0 {
				return fmt.Errorf("versaslot: metrics window/max_windows require mode \"stream\"")
			}
		case "stream":
			if s.Metrics.Window < 0 {
				return fmt.Errorf("versaslot: negative metrics window %v", s.Metrics.Window)
			}
			if s.Metrics.MaxWindows < 0 {
				return fmt.Errorf("versaslot: negative metrics max_windows %d", s.Metrics.MaxWindows)
			}
			if s.Metrics.MaxWindows > 1<<16 {
				return fmt.Errorf("versaslot: metrics max_windows %d exceeds the %d ring cap", s.Metrics.MaxWindows, 1<<16)
			}
		default:
			return fmt.Errorf("versaslot: unknown metrics mode %q (want exact|stream)", s.Metrics.Mode)
		}
	}
	return nil
}

// streamConfig returns the stream-mode configuration and whether
// stream mode is enabled.
func (s Scenario) streamConfig() (metrics.StreamConfig, bool) {
	if s.Metrics == nil || s.Metrics.Mode != "stream" {
		return metrics.StreamConfig{}, false
	}
	return metrics.StreamConfig{
		Window:     s.Metrics.Window,
		MaxWindows: s.Metrics.MaxWindows,
	}, true
}

// workloadKey identifies scenarios whose generated sequences are
// identical: workload generation is a pure function of these fields.
// The paper's sweep grid varies the policy axis most — six policies
// share each (condition, seed) sequence, so a sweep generates each
// sequence once instead of six times.
type workloadKey struct {
	condition string
	seed      uint64
	apps      int
	lo, hi    sim.Duration
	poisson   bool
	// arrival is the canonical serialized arrival spec (empty for the
	// classic generator): scenarios that differ only in their arrival
	// process must never share a cached sequence.
	arrival string
}

// workloadKey returns the cache key for a defaulted scenario, or
// ok=false when the workload is inline or file-based (not generated).
func (s Scenario) workloadKey() (workloadKey, bool) {
	if s.Workload != nil || s.WorkloadFile != "" || len(s.Tenants) > 0 {
		return workloadKey{}, false
	}
	key := workloadKey{
		condition: s.Condition,
		seed:      s.Seed,
		apps:      s.Apps,
		lo:        s.IntervalLo,
		hi:        s.IntervalHi,
		poisson:   s.Poisson,
	}
	if s.Arrival != nil {
		key.arrival = s.Arrival.Key()
	}
	return key, true
}

// Sequence resolves the scenario's workload: inline sequence, file, or
// condition-driven generation. It reads the fields as set; Run fills
// the defaults first.
func (s Scenario) Sequence() (*workload.Sequence, error) {
	if s.Workload != nil {
		return s.Workload, nil
	}
	if s.WorkloadFile != "" {
		f, err := os.Open(s.WorkloadFile)
		if err != nil {
			return nil, fmt.Errorf("versaslot: workload file: %w", err)
		}
		defer f.Close()
		return workload.ReadJSON(f)
	}
	cond, err := workload.ParseCondition(s.Condition)
	if err != nil {
		return nil, fmt.Errorf("versaslot: %w", err)
	}
	p := workload.DefaultGenParams(cond)
	p.Apps = s.Apps
	if s.Arrival != nil {
		seq, err := workload.GenerateArrival(p, s.Arrival.WithCondition(cond), s.Seed)
		if err != nil {
			return nil, fmt.Errorf("versaslot: %w", err)
		}
		return seq, nil
	}
	if s.IntervalLo > 0 && s.IntervalHi >= s.IntervalLo {
		p.IntervalLo, p.IntervalHi = s.IntervalLo, s.IntervalHi
	}
	p.Poisson = s.Poisson
	return workload.Generate(p, s.Seed), nil
}

// tenantSequences generates one workload sequence per tenant (same
// order as Tenants). Each tenant's seed derives from the scenario
// seed plus the tenant name, so adding, removing, or renaming one
// tenant never perturbs another's arrivals. Call on a defaulted
// scenario.
func (s Scenario) tenantSequences() ([]*workload.Sequence, error) {
	seqs := make([]*workload.Sequence, len(s.Tenants))
	for i, t := range s.Tenants {
		condName := s.Condition
		if t.Condition != "" {
			condName = t.Condition
		}
		cond, err := workload.ParseCondition(condName)
		if err != nil {
			return nil, fmt.Errorf("versaslot: tenant %q: %w", t.Name, err)
		}
		p := workload.DefaultGenParams(cond)
		p.Apps = t.Apps
		if p.Apps == 0 {
			p.Apps = s.Apps
		}
		seed := rng.Derive(s.Seed, "tenant/"+t.Name)
		var seq *workload.Sequence
		if t.Arrival != nil {
			seq, err = workload.GenerateArrival(p, t.Arrival.WithCondition(cond), seed)
			if err != nil {
				return nil, fmt.Errorf("versaslot: tenant %q: %w", t.Name, err)
			}
		} else {
			seq = workload.Generate(p, seed)
		}
		seq.Name = t.Name
		seqs[i] = seq
	}
	return seqs, nil
}

// board resolves a single board's policy and platform. The legacy
// big_slots/little_slots mix is the custom Big/Little platform driven
// by the VersaSlot policy it implies; otherwise the registered policy
// runs on the scenario's platform or, without one, its declared
// platform.
func (s Scenario) board() (*sched.Registration, *fabric.Platform, error) {
	if s.BigSlots > 0 || s.LittleSlots > 0 {
		p := fabric.CustomBigLittle(s.BigSlots, s.LittleSlots)
		return sched.VersaSlotFor(p), p, nil
	}
	r, ok := sched.Lookup(s.Policy)
	if !ok {
		return nil, nil, fmt.Errorf("versaslot: unknown policy %q (registered: %v)", s.Policy, sched.Names())
	}
	if s.Platform == nil {
		return r, fabric.MustPlatform(r.Platform), nil
	}
	p, err := s.Platform.Resolve()
	if err == nil {
		err = sched.CompatiblePlatform(r, p)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("versaslot: %w", err)
	}
	return r, p, nil
}

// farmConfig maps the scenario's pair and farm knobs onto a farm
// configuration. Every topology runs as a farm: the single topology is
// one fixed pair (see board), the cluster topology one switching pair.
func (s Scenario) farmConfig() (cluster.FarmConfig, error) {
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
	switch s.Topology {
	case TopologySingle:
		cfg.Pairs = 1
		var err error
		if cfg.Pair.Policy, cfg.Pair.Platform, err = s.board(); err != nil {
			return cfg, err
		}
	case TopologyCluster:
		cfg.Pairs = 1
	}
	if s.Autoscale != nil {
		// The farm is built out to the autoscale max: Pairs is the
		// initial online count, the rest start standby and wait for the
		// autoscaler to commission them.
		a := s.Autoscale.Defaulted()
		cfg.Pairs = a.Max
		cfg.Standby = a.Max - s.Pairs
	}
	return cfg, nil
}

// WriteJSON serializes the scenario as an indented config artifact.
func (s Scenario) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadScenario deserializes a scenario, rejecting unknown fields so
// config-artifact typos fail loudly.
func ReadScenario(r io.Reader) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("versaslot: decode scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// LoadScenario reads and validates a scenario JSON file. Relative
// WorkloadFile and arrival-trace paths inside the scenario are
// resolved against the scenario file's directory — to absolute paths,
// so a catalog entry can name its trace as "traces/ramp.jsonl", run
// from any working directory, and still round-trip through
// SaveScenario into an artifact that runs from anywhere on this
// machine.
func LoadScenario(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("versaslot: %w", err)
	}
	defer f.Close()
	s, err := ReadScenario(f)
	if err != nil {
		return Scenario{}, err
	}
	dir := filepath.Dir(path)
	resolve := func(p string) string {
		if !filepath.IsAbs(p) {
			p = filepath.Join(dir, p)
		}
		if abs, err := filepath.Abs(p); err == nil {
			return abs
		}
		return p
	}
	if s.WorkloadFile != "" {
		s.WorkloadFile = resolve(s.WorkloadFile)
	}
	if s.Arrival != nil {
		spec := s.Arrival.ResolvePaths(resolve)
		s.Arrival = &spec
	}
	return s, nil
}

// SaveScenario writes the scenario to a JSON file.
func SaveScenario(path string, s Scenario) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("versaslot: %w", err)
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Policies lists registered policy names in the paper's presentation
// order (built-ins first, then third-party registrations).
func Policies() []string { return sched.Names() }

// PolicyTitle returns the display title of a registered policy name.
func PolicyTitle(name string) string {
	if r, ok := sched.Lookup(name); ok {
		return r.Title
	}
	return name
}

// Conditions lists the congestion-condition names in the paper's
// order.
func Conditions() []string { return workload.ConditionKeys() }

// ArrivalProcesses lists registered arrival-process names (built-ins
// first, then third-party registrations via
// workload.RegisterArrival).
func ArrivalProcesses() []string { return workload.ArrivalNames() }

// ArrivalProcessTitle returns the display title of a registered
// arrival-process name.
func ArrivalProcessTitle(name string) string {
	if r, ok := workload.LookupArrival(name); ok {
		return r.Title
	}
	return name
}

// Platforms lists registered platform names (built-ins first, then
// third-party registrations via fabric.RegisterPlatform).
func Platforms() []string { return fabric.PlatformNames() }

// Dispatchers lists registered farm-dispatcher names (built-ins
// first, then third-party registrations via
// cluster.RegisterDispatcher).
func Dispatchers() []string { return cluster.DispatcherNames() }

// DispatcherTitle returns the display title of a registered
// dispatcher name.
func DispatcherTitle(name string) string {
	if r, ok := cluster.LookupDispatcher(name); ok {
		return r.Title
	}
	return name
}

// FaultInjectors lists registered fault-injector names (built-ins
// first, then third-party registrations via fault.Register).
func FaultInjectors() []string { return fault.Names() }

// FaultInjectorTitle returns the display title of a registered
// fault-injector name.
func FaultInjectorTitle(name string) string {
	if r, ok := fault.Lookup(name); ok {
		return r.Title
	}
	return name
}
