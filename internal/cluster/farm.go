package cluster

import (
	"fmt"

	"versaslot/internal/appmodel"
	"versaslot/internal/bundle"
	"versaslot/internal/fabric"
	"versaslot/internal/interlink"
	"versaslot/internal/metrics"
	"versaslot/internal/migrate"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// PairPlatforms assigns the two board platforms of one switching pair.
// Empty fields fall back to the farm's pair defaults (and ultimately
// to the paper's zcu216-only-little / zcu216-big-little pair).
type PairPlatforms struct {
	Base  string `json:"base,omitempty"`
	Boost string `json:"boost,omitempty"`
}

// FarmConfig parameterizes a farm: the per-pair switching setup, the
// farm size, the arrival dispatcher, and the cross-pair rebalancer.
type FarmConfig struct {
	// Pair is the configuration every switching pair runs.
	Pair Config
	// Pairs is the farm size (number of switching pairs).
	Pairs int
	// PairPlatforms assigns platforms per pair: entry i configures pair
	// i; missing entries (or empty fields) inherit Pair's platforms. A
	// farm can therefore mix board types — e.g. ZCU216 Big.Little pairs
	// next to U250 quad-slot pairs — and the dispatcher routes each
	// application only to pairs whose slot classes can hold it.
	PairPlatforms []PairPlatforms
	// Dispatcher is a registered dispatcher name; empty means
	// least-loaded (the farm's historical default).
	Dispatcher string
	// RebalanceEvery, when positive, runs the rebalancer on that
	// virtual-time cadence: sustained load imbalance between the most-
	// and least-loaded pairs live-migrates queued applications across
	// pairs over the rack-level Aurora link. Zero disables rebalancing.
	RebalanceEvery sim.Duration
	// RebalanceGap is the minimum load gap (unfinished applications)
	// that triggers a cross-pair migration. Zero (unset) means the
	// default of 2; a configured gap of 1 is honored but can ping-pong
	// a single queued app between two otherwise balanced pairs.
	RebalanceGap int
	// Shards is kept so configurations that set it still compile and
	// decode. Every farm runs each pair on its own kernel from one
	// goroutine; 0 and 1 are accepted, anything else is an error.
	//
	// Deprecated: the farm has one executor; leave Shards zero.
	Shards int
	// Standby decommissions the last Standby pairs at construction:
	// they are configured (kernels, platforms) but start in
	// PairStandby and receive no dispatches until ActivatePair brings
	// them online — the autoscaler's spare capacity. Must be less than
	// Pairs (at least one pair starts online).
	Standby int
}

// PairState is a pair's position in the commissioning lifecycle. It is
// orthogonal to the fault axis: an online pair with an open outage is
// degraded (dispatch routes around it until recovery) while a draining
// pair is leaving the fleet on purpose (its queue has been migrated
// away and it only finishes what is already executing).
type PairState int

const (
	// PairOnline pairs receive dispatches and rebalancer traffic.
	PairOnline PairState = iota
	// PairStandby pairs are built but decommissioned: no dispatches,
	// no rebalancer traffic, until ActivatePair.
	PairStandby
	// PairDraining pairs are scaling down: excluded from new
	// dispatches, their ready queue migrated to online pairs; they
	// finish executing work, then FinishDrain returns them to standby.
	PairDraining
)

func (s PairState) String() string {
	switch s {
	case PairOnline:
		return "online"
	case PairStandby:
		return "standby"
	case PairDraining:
		return "draining"
	default:
		return fmt.Sprintf("PairState(%d)", int(s))
	}
}

// DefaultFarmConfig returns an n-pair farm of the paper's switching
// setup with the default dispatcher and no rebalancing.
func DefaultFarmConfig(n int) FarmConfig {
	return FarmConfig{Pair: DefaultConfig(), Pairs: n}
}

func (c FarmConfig) gap() int {
	if c.RebalanceGap <= 0 {
		return 2
	}
	return c.RebalanceGap
}

// pairConfig returns the cluster Config of pair i with its platform
// assignment applied.
func (c FarmConfig) pairConfig(i int) Config {
	pc := c.Pair
	pc.Seed = c.Pair.Seed + uint64(i)
	if i < len(c.PairPlatforms) {
		if p := c.PairPlatforms[i].Base; p != "" {
			pc.BasePlatform = p
		}
		if p := c.PairPlatforms[i].Boost; p != "" {
			pc.BoostPlatform = p
		}
	}
	return pc
}

// Farm scales the paper's two-board switching unit to a rack: K
// switching pairs — possibly of different board platforms — behind a
// pluggable, capacity-aware dispatcher. Each pair runs its own
// D_switch loop; the dispatcher chooses which pair an arriving
// application joins (among the pairs whose slot classes can hold it),
// and the optional rebalancer live-migrates queued applications
// between compatible pairs when their loads diverge — generalizing the
// paper's board-to-board migration ("a single available FPGA can
// enable cross-board switching for the entire system") to
// pair-to-pair transfers over a rack link.
type Farm struct {
	// K is the farm kernel: it holds only the control plane (arrival
	// dispatch, rebalance ticks, rack transfers, orchestrator ticks,
	// fault chains). Each pair runs on its own kernel (Cluster.K).
	K     *sim.Kernel
	Pairs []*Cluster

	// k is the storage K points at.
	k sim.Kernel

	// Rack is the rack-level Aurora link cross-pair migrations travel
	// over; transfers serialize on it like any interlink channel. A
	// farm of a fixed pair has none.
	Rack *interlink.Link

	// CrossMigrations records every rebalancer-driven pair-to-pair
	// transfer.
	CrossMigrations []migrate.Migration

	// dispatcher routes arrivals; a farm of a fixed pair has none.
	dispatcher Dispatcher
	totalApps  int
	// routed and load share one allocation; each pair holds its other
	// counters (Cluster.crossIn and the rest).
	routed    []int // arrivals dispatched per pair
	load      []int // unfinished apps per pair, maintained incrementally
	unhealthy int   // pairs with outages > 0
	cost      *migrate.CostModel

	// busy lists the pairs that may have pending events, and minNext
	// is a lower bound on their horizons (see exec.go). Every pair
	// starts busy, so the first instant finds what was scheduled
	// before the run.
	busy    []*Cluster
	minNext sim.Time

	// arrivals delivers Inject's arrivals to dispatchOne.
	arrivals *sched.ArrivalCursor

	// poolScratch is DispatchEligible's reusable outage-filter buffer:
	// the result is consumed synchronously by the dispatcher's Pick.
	poolScratch []int

	// uniform is true when every pair runs identical platforms — the
	// homogeneous fast path where per-pair eligibility filtering is
	// skipped (dispatch stays byte-identical to the pre-platform farm);
	// hostability is then all-or-nothing per spec and checked at
	// Inject.
	uniform bool
	// hostBySpec caches farm-wide hostability capability per spec:
	// whether ANY pair — online, standby, or draining — could host it.
	// Pool-independent, so it never invalidates. Made on first use.
	hostBySpec map[*appmodel.AppSpec]bool
	// eligibleBySpec caches, per application spec, the commissioned
	// (non-standby) pair indices whose platforms can host it (nil on
	// the all-online uniform fast path). The cache depends on the pair
	// pool: every ActivatePair/StartDrain/FinishDrain transition
	// invalidates it — see invalidatePools. Made on first use.
	eligibleBySpec map[*appmodel.AppSpec][]int

	// nonOnline counts pairs not currently PairOnline (standby +
	// draining) and draining counts PairDraining pairs, so the
	// all-online fast paths stay a single compare; each pair holds its
	// own commissioning state (Cluster.state).
	nonOnline int
	draining  int

	rebalanceEvery sim.Duration // the rebalance tick's period (0: none)
	rebalanceGap   int          // the load gap that triggers a transfer
	rebalanceArmed bool         // the periodic tick has been scheduled
	rebalancing    bool         // a cross-pair transfer is in flight
	nextTick       sim.EventID  // handle of the pending rebalance tick

	// pool is the storage of the pairs' active boards (see
	// Cluster.build); onBuild, when set, finishes every board a pair
	// builds (see AddBuildHook); like caches idleLike.
	pool    sched.BoardPool
	onBuild func(*sched.Engine)
	like    *metrics.Collector
}

// NewFarm builds a farm from its configuration. It returns an error
// for a configuration without pairs, an unknown dispatcher or platform
// name, switching thresholds without a buffer zone between them, a
// non-positive D_switch window, an out-of-range standby count, or a
// fixed pair (Config.Policy) that is not alone or cannot drive its
// platform.
func NewFarm(cfg FarmConfig) (*Farm, error) {
	if cfg.Pairs <= 0 {
		return nil, fmt.Errorf("cluster: farm needs at least one pair, got %d", cfg.Pairs)
	}
	fixed := cfg.Pair.Policy != nil
	if fixed {
		if cfg.Pairs != 1 {
			return nil, fmt.Errorf("cluster: a fixed pair runs alone, got %d pairs", cfg.Pairs)
		}
		if cfg.Pair.Platform == nil {
			cfg.Pair.Platform = fabric.MustPlatform(cfg.Pair.Policy.Platform)
		} else if err := sched.CompatiblePlatform(cfg.Pair.Policy, cfg.Pair.Platform); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	if up, down := cfg.Pair.ThresholdUp, cfg.Pair.ThresholdDown; !fixed && !(up > down) {
		return nil, fmt.Errorf("cluster: threshold_up %g must exceed threshold_down %g", up, down)
	}
	if !fixed && cfg.Pair.WindowUpdates <= 0 {
		return nil, fmt.Errorf("cluster: window_updates must be positive, got %d", cfg.Pair.WindowUpdates)
	}
	if cfg.Shards < 0 || cfg.Shards > 1 {
		return nil, fmt.Errorf("cluster: shards %d: a farm has one executor (want 0 or 1)", cfg.Shards)
	}
	if cfg.Standby < 0 || cfg.Standby >= cfg.Pairs {
		return nil, fmt.Errorf("cluster: standby count %d out of range (need 0 <= standby < %d pairs)", cfg.Standby, cfg.Pairs)
	}
	f := &Farm{rebalanceEvery: cfg.RebalanceEvery, rebalanceGap: cfg.gap()}
	f.k.Init(cfg.Pair.Seed)
	f.K = &f.k
	n := cfg.Pairs
	counters := make([]int, 2*n)
	f.routed, f.load = counters[:n:n], counters[n:]
	if err := f.buildPairs(cfg); err != nil {
		return nil, err
	}
	for i := cfg.Pairs - cfg.Standby; i < cfg.Pairs; i++ {
		f.Pairs[i].state = PairStandby
		f.nonOnline++
	}
	f.uniform = true
	for _, p := range f.Pairs[1:] {
		if p.Platform(migrate.Base) != f.Pairs[0].Platform(migrate.Base) ||
			p.Platform(migrate.Boost) != f.Pairs[0].Platform(migrate.Boost) {
			f.uniform = false
			break
		}
	}
	if fixed {
		return f, nil
	}
	name := cfg.Dispatcher
	if name == "" {
		name = DispatchLeastLoaded
	}
	var err error
	if f.dispatcher, err = NewDispatcher(name); err != nil {
		return nil, err
	}
	f.Rack = interlink.NewDefault(f.K, "rack")
	// Farm-control events (rack transfers, rebalance ticks, fault
	// chains) run at PriFarmControl and arrivals at PriArrival, so at
	// one instant the control plane runs before pair-local events, as
	// the executor requires (see exec.go).
	f.Rack.SetPriority(sim.PriFarmControl)
	f.dispatcher.Init(f)
	return f, nil
}

// buildPairs makes the record of every pair — its configuration,
// platforms, kernel, link and trigger — from one slice of clusters,
// with pair i at entry i. It builds no board: a pair builds its active
// board when work first reaches it (see Cluster.build), so a fleet pays
// for the boards it uses, and the farm's pool holds at most one active
// board per pair.
func (f *Farm) buildPairs(cfg FarmConfig) error {
	n := cfg.Pairs
	clusters := make([]Cluster, n)
	names := make(platformCache)
	// Pairs and the busy list share one allocation.
	ptrs := make([]*Cluster, 2*n)
	f.Pairs, f.busy = ptrs[:n:n], ptrs[n:]
	var sw []switching
	if cfg.Pair.Policy == nil {
		sw = make([]switching, n)
	}
	for i := range clusters {
		c := &clusters[i]
		c.Cfg = cfg.pairConfig(i)
		for _, mode := range pairModes {
			var err error
			if c.platforms[mode], err = names.lookup(c.Cfg, mode); err != nil {
				return err
			}
		}
		f.pool.Expect(c.platforms[c.Cfg.StartMode], c.policy(c.Cfg.StartMode))
		// The per-pair load counter is maintained incrementally:
		// arrivals increment it at dispatch; completions on either
		// board decrement it in the pair's own finish hook.
		if sw != nil {
			c.switching = &sw[i]
		}
		c.init(f, i)
		f.Pairs[i], f.busy[i] = c, c
	}
	return nil
}

// AddBuildHook adds fn to the hooks that finish every board of every
// pair: it runs now on the boards already built and later on each board
// as it is built, after the pair's own hooks and the hooks added before
// it. Streaming metrics, diagnostics and tenant accounting attach this
// way, so they never force a board to be built.
func (f *Farm) AddBuildHook(fn func(*sched.Engine)) {
	if prev := f.onBuild; prev != nil {
		f.onBuild = func(e *sched.Engine) { prev(e); fn(e) }
	} else {
		f.onBuild = fn
	}
	f.like = nil
	for _, p := range f.Pairs {
		for _, e := range p.engines {
			if e != nil {
				fn(e)
			}
		}
	}
}

// idleLike returns a collector in the metrics mode the build hook gives
// every board: the stand-in mode of a pair with no board built (see
// Cluster.AbsorbInto). Any built board shows that mode; when none is
// built, the hook is asked with a probe board, built on storage of its
// own, that never runs.
func (f *Farm) idleLike() *metrics.Collector {
	if f.like != nil {
		return f.like
	}
	for _, p := range f.Pairs {
		for _, e := range p.engines {
			if e != nil {
				f.like = e.Col
				return f.like
			}
		}
	}
	var own sched.BoardPool
	p := f.Pairs[0]
	probe := own.Build(-1, p.platforms[p.Cfg.StartMode], p.Cfg.Params, f.K, true, p.policy(p.Cfg.StartMode))
	if f.onBuild != nil {
		f.onBuild(probe)
	}
	f.like = probe.Col
	return f.like
}

// fixed reports whether the farm is a fixed pair alone (Config.Policy).
func (f *Farm) fixed() bool { return f.Pairs[0].Cfg.Policy != nil }

// MustNewFarm is NewFarm, panicking on error; for tests and examples
// with known-good configurations.
func MustNewFarm(cfg FarmConfig) *Farm {
	f, err := NewFarm(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Dispatcher returns the canonical name of the farm's dispatcher.
func (f *Farm) Dispatcher() string { return f.dispatcher.Name() }

// ShardCount returns 1: every farm runs on one goroutine.
//
// Deprecated: the farm has one executor.
func (f *Farm) ShardCount() int { return 1 }

// LoadView returns the farm's per-pair unfinished-app counts (the
// dispatcher's view) without copying. It is only valid until the next dispatched arrival or
// completion; callers (dispatchers, the rebalancer) must read, not
// retain or mutate.
func (f *Farm) LoadView() []int { return f.load }

// Eligible returns the commissioned (online or draining) pair indices
// whose platforms can host the application, or nil when every pair can
// (the all-online homogeneous fast path). Dispatchers must restrict
// their choice to these pairs: an application that fits no slot of a
// PYNQ-class pair has to route to a bigger board, and no application
// routes to a standby pair. The per-spec result is cached; the cache
// is invalidated whenever a pair joins or leaves the commissioned pool
// (invalidatePools), so mid-run scale-up/scale-down is never served a
// stale pair set.
func (f *Farm) Eligible(a *appmodel.App) []int {
	if f.uniform && f.nonOnline == 0 {
		return nil
	}
	if elig, ok := f.eligibleBySpec[a.Spec]; ok {
		return elig
	}
	elig := make([]int, 0, len(f.Pairs))
	for i, p := range f.Pairs {
		if p.state != PairStandby && p.CanHost(a.Spec) {
			elig = append(elig, i)
		}
	}
	if f.eligibleBySpec == nil {
		f.eligibleBySpec = make(map[*appmodel.AppSpec][]int)
	}
	f.eligibleBySpec[a.Spec] = elig
	return elig
}

// invalidatePools drops every pool-dependent cache after a pair
// lifecycle transition: the per-spec eligibility lists (their pair
// sets just changed) and, via PoolAware, any dispatcher-internal memo.
// This is the fix for the stale-pool bug the autoscaler exposed: the
// eligibility cache predates pair add/drain and was computed once per
// spec for the run's lifetime, so a newly activated pair never
// received traffic and a draining pair kept receiving it.
func (f *Farm) invalidatePools() {
	for k := range f.eligibleBySpec {
		delete(f.eligibleBySpec, k)
	}
	if pa, ok := f.dispatcher.(PoolAware); ok {
		pa.PoolChanged(f)
	}
}

// CanHostAnywhere reports whether any pair of the farm — regardless of
// commissioning state — could host the application: the capability
// check admission control and Inject run up front. A standby pair
// counts: it can be activated later.
func (f *Farm) CanHostAnywhere(a *appmodel.App) bool {
	h, ok := f.hostBySpec[a.Spec]
	if !ok {
		if f.uniform {
			h = f.Pairs[0].CanHost(a.Spec)
		} else {
			for _, p := range f.Pairs {
				if p.CanHost(a.Spec) {
					h = true
					break
				}
			}
		}
		if f.hostBySpec == nil {
			f.hostBySpec = make(map[*appmodel.AppSpec]bool)
		}
		f.hostBySpec[a.Spec] = h
	}
	return h
}

// CanDispatch reports whether the application could be dispatched
// right now: some commissioned pair can host it. False means the
// capacity exists only on standby pairs (or not at all) — the
// orchestrator holds such arrivals until scale-up commissions one.
func (f *Farm) CanDispatch(a *appmodel.App) bool {
	elig := f.Eligible(a)
	return elig == nil || len(elig) > 0
}

// PairStateOf returns pair i's commissioning state.
func (f *Farm) PairStateOf(i int) PairState { return f.Pairs[i].state }

// OnlineCount returns the number of PairOnline pairs.
func (f *Farm) OnlineCount() int { return len(f.Pairs) - f.nonOnline }

// DrainingCount returns the number of PairDraining pairs.
func (f *Farm) DrainingCount() int { return f.draining }

// ActivatePair commissions a standby pair: it joins the dispatch pool
// at the current instant (the scale-up latency has already elapsed —
// the autoscaler schedules the activation, not the decision, at
// decision time + up_latency). The eligibility caches are invalidated
// so the next arrival can route to it.
func (f *Farm) ActivatePair(i int) error {
	if i < 0 || i >= len(f.Pairs) {
		return fmt.Errorf("cluster: activate pair %d of %d", i, len(f.Pairs))
	}
	if f.Pairs[i].state != PairStandby {
		return fmt.Errorf("cluster: activate pair %d: state %v, want standby", i, f.Pairs[i].state)
	}
	f.Pairs[i].state = PairOnline
	f.nonOnline--
	f.invalidatePools()
	return nil
}

// StartDrain begins decommissioning an online pair: it leaves the
// dispatch pool immediately, and its ready (not yet executing) queue
// live-migrates to the least-loaded online pairs that can host each
// application, over the rack link — the same extract/transfer/
// re-inject mechanics as the rebalancer, so no application is ever
// lost. Apps no online pair can host are re-queued at the source
// (counted as requeued) and finish there. Executing work always stays,
// exactly as in Section III-D. Returns the number of apps migrated
// away. Draining the last online pair is refused.
func (f *Farm) StartDrain(i int) (int, error) {
	if i < 0 || i >= len(f.Pairs) {
		return 0, fmt.Errorf("cluster: drain pair %d of %d", i, len(f.Pairs))
	}
	if f.Pairs[i].state != PairOnline {
		return 0, fmt.Errorf("cluster: drain pair %d: state %v, want online", i, f.Pairs[i].state)
	}
	if f.OnlineCount() <= 1 {
		return 0, fmt.Errorf("cluster: drain pair %d: it is the last online pair", i)
	}
	f.Pairs[i].state = PairDraining
	f.nonOnline++
	f.draining++
	f.invalidatePools()
	return f.drainCross(i), nil
}

// FinishDrain returns a fully drained pair to standby. It is the
// autoscaler's completion check: legal only once the pair has no
// unfinished applications left.
func (f *Farm) FinishDrain(i int) error {
	if i < 0 || i >= len(f.Pairs) {
		return fmt.Errorf("cluster: finish drain of pair %d of %d", i, len(f.Pairs))
	}
	if f.Pairs[i].state != PairDraining {
		return fmt.Errorf("cluster: finish drain of pair %d: state %v, want draining", i, f.Pairs[i].state)
	}
	if f.load[i] != 0 {
		return fmt.Errorf("cluster: finish drain of pair %d: %d apps still unfinished", i, f.load[i])
	}
	f.Pairs[i].state = PairStandby
	f.draining--
	f.invalidatePools()
	return nil
}

// drainCross moves every ready application off pair src: each app goes
// to the least-loaded healthy online pair that can host it (ties to
// the lowest index, loads updated as apps are assigned), grouped into
// one rack-link transfer per destination. Unhostable apps re-queue at
// src. Same ledger bookkeeping as migrateCross.
func (f *Farm) drainCross(src int) int {
	// A pair with no active board has nothing to extract.
	eng := f.Pairs[src].Built(f.Pairs[src].ActiveMode())
	if eng == nil {
		return 0
	}
	// Extraction, requeue, and Forget all reach into the source pair's
	// engines at the current control instant.
	f.TouchPair(src)
	all := eng.Policy().ExtractMigratable()
	if len(all) == 0 {
		return 0
	}
	groups := make([][]*appmodel.App, len(f.Pairs))
	var unfit []*appmodel.App
	for _, a := range all {
		dst := -1
		for j := range f.Pairs {
			if j == src || f.Pairs[j].state != PairOnline || f.Pairs[j].outages > 0 {
				continue
			}
			if !f.uniform && !f.Pairs[j].CanHost(a.Spec) {
				continue
			}
			if dst < 0 || f.load[j] < f.load[dst] {
				dst = j
			}
		}
		if dst < 0 {
			// Fall back to degraded online pairs before giving up: a
			// degraded pair still queues work for recovery.
			for j := range f.Pairs {
				if j == src || f.Pairs[j].state != PairOnline {
					continue
				}
				if !f.uniform && !f.Pairs[j].CanHost(a.Spec) {
					continue
				}
				if dst < 0 || f.load[j] < f.load[dst] {
					dst = j
				}
			}
		}
		if dst < 0 {
			unfit = append(unfit, a)
			continue
		}
		groups[dst] = append(groups[dst], a)
		f.load[src]--
		f.load[dst]++
	}
	if len(unfit) > 0 {
		f.Pairs[src].requeued += len(unfit)
		eng.Policy().AcceptMigrated(unfit)
	}
	moved := 0
	for dst, apps := range groups {
		if len(apps) == 0 {
			continue
		}
		moved += len(apps)
		for _, a := range apps {
			f.Pairs[src].forget(a)
		}
		f.Pairs[src].crossOut += len(apps)
		f.Pairs[dst].crossIn += len(apps)
		target := f.Pairs[dst]
		dstIdx := dst
		migrate.ExecuteModel(f.K, f.Rack, apps, f.cost, func(apps []*appmodel.App) {
			f.TouchPair(dstIdx)
			target.acceptCross(apps)
		}, func(m migrate.Migration) {
			f.CrossMigrations = append(f.CrossMigrations, m)
		})
	}
	return moved
}

// PairOutage marks one of pair i's boards as failed: the pair is
// degraded — dispatchers route around it and the rebalancer drains it —
// until a matching PairRestored. Outages nest (both boards of a pair
// can be down at once); the board-fail injector drives these. Also used
// as the availability hint for the checkpoint injector's health model.
func (f *Farm) PairOutage(i int) {
	if f.Pairs[i].outages == 0 {
		f.unhealthy++
	}
	f.Pairs[i].outages++
}

// PairRestored closes one outage on pair i; the pair rejoins dispatch
// once every outage is restored. Restoring a healthy pair is a no-op so
// injector chains cannot drive the count negative.
func (f *Farm) PairRestored(i int) {
	if f.Pairs[i].outages == 0 {
		return
	}
	f.Pairs[i].outages--
	if f.Pairs[i].outages == 0 {
		f.unhealthy--
	}
}

// SetMigrationCost installs a checkpoint/restore cost model on every
// migration in the farm: cross-pair rebalancer transfers and each
// pair's internal switches.
func (f *Farm) SetMigrationCost(m *migrate.CostModel) {
	f.cost = m
	for _, p := range f.Pairs {
		if p.switching != nil { // a fixed pair never switches
			p.cost = m
		}
	}
}

// DispatchEligible is the dispatcher's view of Eligible: compatible
// pairs with open outages are filtered out, so arrivals route around
// degraded pairs, and draining pairs are filtered out, so scale-down
// stops receiving new work the instant it is decided. If every
// compatible pair is degraded or draining the full compatible set is
// returned — an arrival must land somewhere, and a degraded pair still
// queues work for when its board recovers. With no open outages and no
// draining pair this is exactly Eligible (the fault-free fast path
// draws nothing and allocates nothing extra).
func (f *Farm) DispatchEligible(a *appmodel.App) []int {
	elig := f.Eligible(a)
	if f.unhealthy == 0 && f.draining == 0 {
		return elig
	}
	// The filtered pool lives in a per-farm scratch buffer: Pick
	// consumes it synchronously, and the next arrival overwrites it.
	pool := f.poolScratch[:0]
	if elig == nil {
		for i := range f.Pairs {
			if f.Pairs[i].outages == 0 {
				pool = append(pool, i)
			}
		}
	} else {
		for _, i := range elig {
			if f.Pairs[i].outages == 0 && f.Pairs[i].state != PairDraining {
				pool = append(pool, i)
			}
		}
	}
	f.poolScratch = pool
	if len(pool) == 0 {
		return elig
	}
	return pool
}

// Inject schedules the workload, dispatching each arrival through the
// farm's dispatcher at its arrival instant. It errors up front for
// applications no pair in the farm can host. A fixed pair takes the
// apps straight into its engine instead, which schedules their
// arrivals on the pair's own kernel, as a standalone board does.
func (f *Farm) Inject(seq *workload.Sequence) error {
	apps, err := seq.Instantiate(f.totalApps)
	if err != nil {
		return err
	}
	if f.fixed() {
		platform := f.Pairs[0].platforms[migrate.Base]
		for _, a := range apps {
			// The virtual baseline template runs whatever it is given.
			if !platform.Virtual && !bundle.Hostable(a.Spec, platform) {
				return fmt.Errorf("cluster: app %v (%s) fits no slot class of platform %q", a, a.Spec.Name, platform.Name)
			}
		}
		f.totalApps += len(apps)
		f.load[0] += len(apps)
		f.Pairs[0].activeEngine().InjectSequence(apps)
		return nil
	}
	for _, a := range apps {
		if !f.CanHostAnywhere(a) {
			return fmt.Errorf("cluster: app %v (%s) fits no slot class on any pair of the farm", a, a.Spec.Name)
		}
	}
	f.totalApps += len(apps)
	if f.arrivals == nil {
		f.arrivals = sched.NewArrivalCursor(f.K, sched.DeliverFunc(f.dispatchOne))
	}
	f.arrivals.Schedule(apps)
	f.armRebalancer()
	return nil
}

// DispatchNow routes one application through the dispatcher at the
// current kernel instant: the orchestrator's admission-time injection
// path (arrivals reach the farm only once admitted, so the farm's
// ledger counts admitted apps, never rejected ones). Callers validate
// hostability (CanHostAnywhere) and schedulability (CanDispatch)
// first.
func (f *Farm) DispatchNow(a *appmodel.App) {
	f.totalApps++
	f.dispatchOne(a)
	f.armRebalancer()
}

// dispatchOne routes one arrival through the dispatcher at its arrival
// instant.
func (f *Farm) dispatchOne(a *appmodel.App) {
	idx := f.dispatcher.Pick(a)
	if idx < 0 || idx >= len(f.Pairs) {
		panic(fmt.Sprintf("cluster: dispatcher %q picked pair %d of %d",
			f.dispatcher.Name(), idx, len(f.Pairs)))
	}
	if elig := f.Eligible(a); elig != nil && !containsPair(elig, idx) {
		panic(fmt.Sprintf("cluster: dispatcher %q routed %s to pair %d, whose platforms cannot host it",
			f.dispatcher.Name(), a.Spec.Name, idx))
	}
	f.routed[idx]++
	f.load[idx]++
	// Pair clocks advance lazily; the pair must reach the dispatch
	// instant before the injection lands on its kernel.
	f.TouchPair(idx)
	f.Pairs[idx].activeEngine().InjectNow(a)
}

func containsPair(elig []int, idx int) bool {
	for _, i := range elig {
		if i == idx {
			return true
		}
	}
	return false
}

// Routed returns a copy of how many arrivals each pair received.
func (f *Farm) Routed() []int {
	out := make([]int, len(f.routed))
	copy(out, f.routed)
	return out
}

// RoutedView is Routed without the copy; same read-only, read-now
// contract as LoadView.
func (f *Farm) RoutedView() []int { return f.routed }

// armRebalancer schedules the first rebalance tick; the tick
// re-schedules itself while unfinished applications remain, so the
// loop winds down with the workload instead of keeping the kernel
// alive forever.
func (f *Farm) armRebalancer() {
	if f.rebalanceEvery <= 0 || f.rebalanceArmed {
		return
	}
	f.rebalanceArmed = true
	f.scheduleTick()
}

// rebalanceEvent is the rebalance tick, a typed view of the Farm: the
// tick re-arms itself without allocating.
type rebalanceEvent Farm

func (ev *rebalanceEvent) Fire() { (*Farm)(ev).rebalanceTick() }

// scheduleTick schedules the next rebalance tick one period from now.
func (f *Farm) scheduleTick() {
	f.nextTick = f.K.AtPHandler(f.K.Now().Add(f.rebalanceEvery), sim.PriFarmControl, (*rebalanceEvent)(f))
}

// finishedCount sums per-pair completions.
func (f *Farm) finishedCount() int {
	n := 0
	for _, p := range f.Pairs {
		n += p.finished
	}
	return n
}

// DisarmRebalancer cancels the pending rebalance tick (via its event
// handle), e.g. to freeze placement while draining a farm. Injecting
// another sequence re-arms it.
func (f *Farm) DisarmRebalancer() {
	f.K.Cancel(f.nextTick)
	f.nextTick = sim.NoEvent
	f.rebalanceArmed = false
}

func (f *Farm) rebalanceTick() {
	if f.finishedCount() >= f.totalApps {
		f.rebalanceArmed = false
		f.nextTick = sim.NoEvent
		return
	}
	f.scheduleTick()
	if f.rebalancing || len(f.Pairs) < 2 {
		// One transfer at a time on the rack link; the next tick
		// re-evaluates.
		return
	}
	// Degraded pairs are treated as infinitely hot: a pair with an open
	// outage is always the preferred drain source and never a
	// destination. With no open outages the scan reduces to the classic
	// first-argmax/first-argmin over load, byte-identical to the
	// fault-free rebalancer. Standby and draining pairs are outside the
	// pool entirely: standby pairs hold no work, and a draining pair's
	// queue was already migrated by StartDrain — with every pair online
	// the check never fires.
	src, dst := -1, -1
	for i, l := range f.load {
		if f.Pairs[i].state != PairOnline {
			continue
		}
		if f.Pairs[i].outages > 0 {
			if src < 0 || f.Pairs[src].outages == 0 || l > f.load[src] {
				src = i
			}
			continue
		}
		if src < 0 || (f.Pairs[src].outages == 0 && l > f.load[src]) {
			src = i
		}
		if dst < 0 || l < f.load[dst] {
			dst = i
		}
	}
	if src < 0 || dst < 0 || src == dst {
		return
	}
	if f.Pairs[src].outages > 0 {
		// Drain the degraded pair regardless of the gap threshold: its
		// queue has nowhere to run until recovery.
		if f.load[src] <= 0 {
			return
		}
		f.migrateCross(src, dst, f.load[src])
		return
	}
	gap := f.load[src] - f.load[dst]
	if gap < f.rebalanceGap {
		return
	}
	move := gap / 2
	if move == 0 {
		move = 1 // a configured gap of 1 still moves one app
	}
	f.migrateCross(src, dst, move)
}

// migrateCross moves up to max queued applications from pair src to
// pair dst over the rack link: the same extract/transfer/re-inject
// mechanics as the pair-internal switch, generalized beyond a pair's
// two boards. Only ready (not yet executing) applications move;
// executing work stays on its board, exactly as in Section III-D. On
// heterogeneous farms the destination's slot classes are validated per
// application: apps the destination cannot host are re-queued at the
// source instead of transferred.
func (f *Farm) migrateCross(src, dst, max int) {
	eng := f.Pairs[src].Built(f.Pairs[src].ActiveMode())
	if eng == nil {
		return
	}
	// Extraction, requeue, and Forget all reach into the source pair's
	// engines at the current control instant.
	f.TouchPair(src)
	var moved []*appmodel.App
	if lim, ok := eng.Policy().(sched.MigrationLimiter); ok {
		// The policy can extract a bounded set without dissolving
		// scheduling state for apps that stay.
		moved = lim.ExtractMigratableUpTo(max)
	} else {
		// Lossless-drain policies: extract everything, move the most
		// recently arrived apps (furthest from being scheduled
		// locally), and re-queue the remainder.
		all := eng.Policy().ExtractMigratable()
		n := max
		if n > len(all) {
			n = len(all)
		}
		moved = all[len(all)-n:]
		if rest := all[:len(all)-n]; len(rest) > 0 {
			eng.Policy().AcceptMigrated(rest)
		}
	}
	// Destination slot-class compatibility: on heterogeneous farms the
	// globally least-loaded pair may be unable to host any extracted
	// app (a small-board pair is often the idlest precisely because
	// heavy apps route around it), so re-pick the least-loaded healthy
	// pair that can host at least one candidate, then keep only the
	// apps it can hold; the rest return to the source queue and are
	// counted as re-queued.
	if !f.uniform {
		dst = -1
		for i := range f.Pairs {
			if i == src || f.Pairs[i].outages > 0 || f.Pairs[i].state != PairOnline {
				continue
			}
			hostsAny := false
			for _, a := range moved {
				if containsPair(f.Eligible(a), i) {
					hostsAny = true
					break
				}
			}
			if hostsAny && (dst < 0 || f.load[i] < f.load[dst]) {
				dst = i
			}
		}
		if dst < 0 {
			if len(moved) > 0 {
				f.Pairs[src].requeued += len(moved)
				eng.Policy().AcceptMigrated(moved)
			}
			return
		}
		kept := moved[:0]
		var unfit []*appmodel.App
		for _, a := range moved {
			if containsPair(f.Eligible(a), dst) {
				kept = append(kept, a)
			} else {
				unfit = append(unfit, a)
			}
		}
		moved = kept
		if len(unfit) > 0 {
			f.Pairs[src].requeued += len(unfit)
			eng.Policy().AcceptMigrated(unfit)
		}
	}
	target := f.Pairs[dst]
	if len(moved) == 0 {
		return
	}
	n := len(moved)
	for _, a := range moved {
		f.Pairs[src].forget(a)
	}
	f.load[src] -= n
	f.load[dst] += n
	f.Pairs[src].crossOut += n
	f.Pairs[dst].crossIn += n
	f.rebalancing = true
	dstIdx := dst
	migrate.ExecuteModel(f.K, f.Rack, moved, f.cost, func(apps []*appmodel.App) {
		f.rebalancing = false
		f.TouchPair(dstIdx)
		target.acceptCross(apps)
	}, func(m migrate.Migration) {
		f.CrossMigrations = append(f.CrossMigrations, m)
	})
}

// PairStat is one pair's contribution to a farm run.
type PairStat struct {
	// Pair is the pair index.
	Pair int `json:"pair"`
	// Routed is how many arrivals the dispatcher sent to the pair.
	Routed int `json:"routed"`
	// Apps is how many applications finished on the pair.
	Apps int `json:"apps"`
	// MeanRT and P50 summarize the pair's response times.
	MeanRT sim.Duration `json:"mean_rt"`
	P50    sim.Duration `json:"p50"`
	// UtilLUT/UtilFF are the pair's resource utilizations, weighted
	// across its two boards by completed apps.
	UtilLUT float64 `json:"util_lut"`
	UtilFF  float64 `json:"util_ff"`
	// Switches counts the pair's internal cross-board switches.
	Switches int `json:"switches"`
	// MigratedIn/MigratedOut count applications the rebalancer moved
	// into and out of the pair.
	MigratedIn  int `json:"migrated_in"`
	MigratedOut int `json:"migrated_out"`
	// Requeued counts applications the rebalancer extracted from the
	// pair but returned to its queue because no compatible (or healthy)
	// destination existed at that tick.
	Requeued int `json:"requeued,omitempty"`
}

// Run executes every pending event (see exec.go), aligns the clocks and
// closes every board; on a farm Step has drained it only aligns and
// closes. It reports the farm's switching and a per-pair breakdown,
// each pair's boards merged into one collector (reset between pairs).
func (f *Farm) Run() Summary {
	f.run()
	f.alignClocks()
	if f.fixed() {
		// A fixed pair has no switching to report: its board is read
		// as a standalone board's.
		f.Pairs[0].closeBoards()
		return Summary{}
	}
	var pair metrics.Collector
	var switchTime, crossTime sim.Duration
	s := Summary{PairStats: make([]PairStat, 0, len(f.Pairs))}
	for i, p := range f.Pairs {
		pair.Reset()
		p.closeBoards()
		p.AbsorbInto(&pair)
		ps := pair.Summarize()
		s.PairStats = append(s.PairStats, PairStat{
			Pair:        i,
			Routed:      f.routed[i],
			Apps:        ps.Apps,
			MeanRT:      ps.MeanRT,
			P50:         ps.P50,
			UtilLUT:     ps.UtilLUT,
			UtilFF:      ps.UtilFF,
			Switches:    len(p.Migrations),
			MigratedIn:  f.Pairs[i].crossIn,
			MigratedOut: f.Pairs[i].crossOut,
			Requeued:    f.Pairs[i].requeued,
		})
		switchTime += s.addSwitches(p.Migrations)
		s.Trace = append(s.Trace, p.Trace...)
	}
	s.MeanSwitchTime = meanOver(switchTime, s.Switches)
	s.CrossSwitches = len(f.CrossMigrations)
	for _, m := range f.CrossMigrations {
		s.CrossMigratedApps += m.Apps
		crossTime += m.Duration
	}
	s.MeanCrossTime = meanOver(crossTime, s.CrossSwitches)
	return s
}

// Quiescent reports whether every injected application has finished.
// Fault-injector chains gate on it so they stop firing once the
// workload drains instead of keeping the kernel alive forever.
func (f *Farm) Quiescent() bool { return f.finishedCount() >= f.totalApps }

// UnfinishedCount sums unfinished apps across the farm (diagnostics).
func (f *Farm) UnfinishedCount() int {
	n := 0
	for _, p := range f.Pairs {
		for _, e := range p.engines {
			if e != nil {
				n += e.UnfinishedCount()
			}
		}
	}
	return n
}
