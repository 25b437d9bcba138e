package cluster

import (
	"fmt"
	"strconv"
	"sync"

	"versaslot/internal/appmodel"
	"versaslot/internal/bundle"
	"versaslot/internal/fabric"
	"versaslot/internal/interlink"
	"versaslot/internal/metrics"
	"versaslot/internal/migrate"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
	"versaslot/internal/trace"
)

// pairModes is the fixed mode iteration order that keeps pair
// bookkeeping and metric merging deterministic.
var pairModes = []migrate.Mode{migrate.Base, migrate.Boost}

// Config parameterizes a two-board switching cluster.
type Config struct {
	Params sched.Params
	// BasePlatform and BoostPlatform name the pair's two board
	// platforms in the registry: the base board serves steady load, the
	// boost board is what the D_switch trigger flips to under sustained
	// contention. Empty values select the paper's pair
	// (zcu216-only-little / zcu216-big-little).
	BasePlatform, BoostPlatform string
	// StartMode is the initially active configuration (paper: the base
	// Only.Little board).
	StartMode migrate.Mode
	// ThresholdUp/ThresholdDown are the Schmitt-trigger levels.
	ThresholdUp, ThresholdDown float64
	// WindowUpdates is n: D_switch recomputes every n candidate-queue
	// updates (Fig. 8 uses 4).
	WindowUpdates int
	// Smoothing is the EWMA factor applied to raw D_switch samples
	// before the trigger sees them (1 = no smoothing). Damps window
	// noise so the hysteresis loop reacts to sustained contention.
	Smoothing float64
	// Seed seeds the kernel RNG.
	Seed uint64
	// Policy, when set, makes the pair fixed: one board of Platform
	// driven by this policy, with no spare, no D_switch trigger and no
	// link. Its farm has the pair alone and no dispatcher, and hands it
	// its apps straight into the engine; it is how a single board runs.
	// The switching setup above is then unused.
	Policy *sched.Registration
	// Platform is a fixed pair's resolved platform: a registered one,
	// an inline custom platform or the virtual baseline template; nil
	// means the policy's declared platform.
	Platform *fabric.Platform
}

// DefaultConfig returns the paper's switching setup.
func DefaultConfig() Config {
	return Config{
		Params:        sched.DefaultParams(),
		StartMode:     migrate.Base,
		ThresholdUp:   migrate.DefaultThresholdUp,
		ThresholdDown: migrate.DefaultThresholdDown,
		WindowUpdates: 4,
		Smoothing:     0.3,
		Seed:          1,
	}
}

// platformName returns the configured platform name of a mode,
// defaulting to the paper's pair.
func (c Config) platformName(m migrate.Mode) string {
	name, fallback := c.BasePlatform, fabric.ZCU216OnlyLittle
	if m == migrate.Boost {
		name, fallback = c.BoostPlatform, fabric.ZCU216BigLittle
	}
	if name == "" {
		return fallback
	}
	return name
}

// platformCache resolves a farm's platform names, looking each
// distinct name up once however many pairs use it: a farm names a
// handful of platforms across all of its pairs.
type platformCache map[string]*fabric.Platform

// lookup resolves the platform of a pair configuration's mode; a fixed
// pair's one platform serves both modes.
func (r platformCache) lookup(cfg Config, mode migrate.Mode) (*fabric.Platform, error) {
	if cfg.Policy != nil {
		return cfg.Platform, nil
	}
	name := cfg.platformName(mode)
	if p, ok := r[name]; ok {
		return p, nil
	}
	p, ok := fabric.LookupPlatform(name)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown platform %q (registered: %v)", name, fabric.PlatformNames())
	}
	if p.Virtual {
		return nil, fmt.Errorf("cluster: platform %q is the monolithic baseline template; switching pairs need DPR slots", p.Name)
	}
	r[name] = p
	return p, nil
}

// TracePoint is one D_switch evaluation (Fig. 8 left).
type TracePoint struct {
	At        sim.Time
	Completed int
	D         float64
	Mode      migrate.Mode
	Decision  migrate.Decision
}

// Cluster is a two-board switching pair: a base board, a boost board
// (by default the paper's Only.Little / Big.Little ZCU216 pair, but
// any registered DPR platforms), an Aurora link, and the switch
// controller. Every pair is owned by a Farm, which routes arrivals to
// it and runs it.
//
// A pair starts as this record alone: its configuration, platforms,
// link and trigger. Each board — its engine, slot records and policy —
// is built the first time something needs it. The active board is
// built when work first reaches the pair: a dispatch injection, a
// migration delivery, fault attach or a caller of Engine. The spare is
// built frozen on a prewarm, a switch or a caller of Engine. Until a
// board is built, readers treat it as an idle board.
type Cluster struct {
	// K is the pair's own kernel: every event of its boards and link
	// runs here, and the farm's executor runs it between control
	// instants (see exec.go).
	K   *sim.Kernel
	Cfg Config

	// k is the storage K points at, next a lower bound on the time of
	// its earliest pending event (the pair's horizon), and busy whether
	// the pair is on the farm's busy list (see exec.go).
	k    sim.Kernel
	next sim.Time
	busy bool

	// engines holds each mode's engine, nil until its board is built.
	engines   [2]*sched.Engine
	platforms [2]*fabric.Platform
	active    migrate.Mode

	// firstBoard is the base board's ID; the boost board's is the next.
	firstBoard int
	// farm and index place the pair in its farm: completions update
	// the farm's per-pair load, and boards are finished by the farm's
	// build hook.
	farm  *Farm
	index int
	// state is the pair's commissioning state (see PairState).
	state PairState
	// finished counts the pair's completions, outages its open board
	// outages (>0 = degraded); crossIn, crossOut and requeued count the
	// apps the rebalancer moved in, moved out, and extracted but
	// returned.
	finished, outages           int
	crossIn, crossOut, requeued int

	// switching is the D_switch loop and live migration of a switching
	// pair. A fixed pair has none, so its Link, Trace and Migrations
	// must not be touched.
	*switching
}

// switching is the state of a switching pair's D_switch loop and live
// migration between its boards.
type switching struct {
	Link       interlink.Link
	trigger    migrate.Trigger
	updates    int
	dSmoothed  float64
	migrating  bool
	Trace      []TracePoint
	Migrations []migrate.Migration

	// candScratch is onQueueUpdate's reusable D_switch candidate
	// buffer; the gather is consumed synchronously each evaluation.
	candScratch []*appmodel.App

	// cost, when set, prices switches with checkpoint/restore
	// semantics (installed by the fault subsystem's checkpoint
	// injector); nil keeps the classic payload.
	cost *migrate.CostModel
}

// init finishes, in place, pair index of farm f on its own kernel,
// seeded with the pair's seed. Its Cfg, switching state (none for a
// fixed pair) and both platforms are already set, resolved
// and validated (the paper's point: the static regions are fixed at
// start-up; switching between them at runtime is what live migration
// buys). Both boards are built on first use (see build).
func (c *Cluster) init(f *Farm, index int) {
	c.k.Init(c.Cfg.Seed)
	c.K, c.farm, c.index, c.busy = &c.k, f, index, true
	c.firstBoard = 2 * index
	c.active = c.Cfg.StartMode
	if c.switching != nil {
		c.Link.Init(c.K, linkName(index), interlink.DefaultBandwidth, interlink.DefaultSetup)
		c.trigger.Init(c.Cfg.StartMode, c.Cfg.ThresholdUp, c.Cfg.ThresholdDown)
	}
}

// build makes the board, engine and policy of a mode and adopts them:
// the one constructor of every board a pair has. The start mode's
// board, built when work first reaches the pair, takes its storage
// from the farm's pool, in the order dispatch, rack deliveries and
// fault attach reach the pairs. The other board is the spare, built on
// storage of its own whenever the pair's own events first need it; it
// starts frozen and only executes after a switch.
func (c *Cluster) build(mode migrate.Mode) *sched.Engine {
	var own sched.BoardPool
	pool := &own
	if mode == c.Cfg.StartMode {
		pool = &c.farm.pool
	}
	eng := pool.Build(c.BoardID(mode), c.platforms[mode], c.Cfg.Params, c.K, mode != c.active, c.policy(mode))
	eng.SetPair((*pairHooks)(c))
	c.engines[mode] = eng
	if fn := c.farm.onBuild; fn != nil {
		fn(eng)
	}
	return eng
}

// policy returns the registration whose policy drives a mode's board:
// a fixed pair's policy, or the VersaSlot policy the platform calls for.
func (c *Cluster) policy(mode migrate.Mode) *sched.Registration {
	if c.Cfg.Policy != nil {
		return c.Cfg.Policy
	}
	return sched.VersaSlotFor(c.platforms[mode])
}

// pairHooks is the engines' view of their pair (sched.Pair). A
// *Cluster converts to it without allocating, so every board of every
// pair reports through one value.
type pairHooks Cluster

func (h *pairHooks) QueueUpdated()               { (*Cluster)(h).onQueueUpdate() }
func (h *pairHooks) AppFinished(a *appmodel.App) { (*Cluster)(h).onAppFinished(a) }

// AppCrashed re-homes an app crash-restarted on a frozen (draining)
// board to the active board, with intra-pair migration bookkeeping:
// it would otherwise queue there forever, since a frozen board makes no
// new placements and nothing unfreezes a drained board.
func (h *pairHooks) AppCrashed(e *sched.Engine, a *appmodel.App) bool {
	c := (*Cluster)(h)
	if !e.Frozen() || c.activeEngine() == e {
		return false
	}
	e.RemoveActive(a)
	c.activeEngine().InjectMigrated(a)
	return true
}

// linkNames interns the per-pair Aurora link names: a fleet rebuilds
// the same pairs run after run, so each name is formatted once per
// process. The table grows only with distinct pair indexes.
var linkNames = struct {
	mu sync.RWMutex
	m  map[int]string
}{m: make(map[int]string)}

func linkName(pair int) string {
	linkNames.mu.RLock()
	name, ok := linkNames.m[pair]
	linkNames.mu.RUnlock()
	if ok {
		return name
	}
	name = "aurora" + strconv.Itoa(pair)
	linkNames.mu.Lock()
	linkNames.m[pair] = name
	linkNames.mu.Unlock()
	return name
}

// ActiveMode returns the currently active configuration.
func (c *Cluster) ActiveMode() migrate.Mode { return c.active }

// Engine returns the engine of a mode, building its board on first
// use.
func (c *Cluster) Engine(mode migrate.Mode) *sched.Engine {
	if e := c.engines[mode]; e != nil {
		return e
	}
	return c.build(mode)
}

// Built returns the engine of a mode, or nil while its board has not
// been built; for readers that must not build a board.
func (c *Cluster) Built(mode migrate.Mode) *sched.Engine { return c.engines[mode] }

// BoardID returns the board ID of a mode, built or not.
func (c *Cluster) BoardID(mode migrate.Mode) int { return c.firstBoard + int(mode) }

// Platform returns the platform assigned to a mode.
func (c *Cluster) Platform(mode migrate.Mode) *fabric.Platform { return c.platforms[mode] }

// CanHost reports whether the pair can execute an application spec on
// both of its platforms — the capacity test heterogeneous-farm
// dispatchers apply before routing (the pair may switch at any time,
// so the app must fit wherever it lands).
func (c *Cluster) CanHost(spec *appmodel.AppSpec) bool {
	return bundle.Hostable(spec, c.platforms[migrate.Base]) &&
		bundle.Hostable(spec, c.platforms[migrate.Boost])
}

func (c *Cluster) activeEngine() *sched.Engine { return c.Engine(c.active) }

func (c *Cluster) spareEngine() *sched.Engine { return c.Engine(c.active.Other()) }

// closeBoards closes the built boards' residency intervals and checks
// that each drained; an unbuilt spare holds nothing.
func (c *Cluster) closeBoards() {
	for _, e := range c.engines {
		if e != nil {
			e.FlushResidency()
			e.CheckQuiescent()
		}
	}
}

// forget drops an app another pair now hosts from both boards: an
// earlier switch may have listed it on the spare too, and the pair's
// D_switch accounting must stop counting it.
func (c *Cluster) forget(a *appmodel.App) {
	for _, e := range c.engines {
		if e != nil {
			e.Forget(a)
		}
	}
}

func (c *Cluster) onAppFinished(*appmodel.App) {
	c.finished++
	c.farm.load[c.index]--
}

// onQueueUpdate implements the paper's cadence: every WindowUpdates
// changes of the candidate queue, re-evaluate D_switch and act.
func (c *Cluster) onQueueUpdate() {
	if c.switching == nil {
		return // a fixed pair has no trigger
	}
	c.updates++
	if c.updates%c.Cfg.WindowUpdates != 0 {
		return
	}
	var blocked uint64
	for _, e := range c.engines {
		if e != nil {
			blocked += e.ResetWindow()
		}
	}
	// N_PR is the stock of PR tasks owned by completed and running
	// applications (R_c and R_s in Eq. 1): it grows as the run
	// progresses, which is what makes the Fig. 8 trace decay toward
	// the lower threshold once contention subsides.
	var prTasks uint64
	candidates := c.candScratch[:0]
	for _, e := range c.engines {
		if e == nil {
			continue
		}
		candidates = append(candidates, e.Active...)
		for _, a := range e.Apps {
			if a.State == appmodel.StateFinished || a.Started {
				prTasks += uint64(len(a.Spec.Tasks))
			}
		}
	}
	c.candScratch = candidates
	nApps, nBatch := migrate.GatherCandidates(candidates)
	raw := migrate.DSwitch(migrate.DSwitchInputs{
		BlockedTasks: blocked,
		PRTasks:      prTasks,
		Apps:         nApps,
		TotalBatch:   nBatch,
	})
	alpha := c.Cfg.Smoothing
	if alpha <= 0 || alpha > 1 {
		alpha = 1
	}
	c.dSmoothed = alpha*raw + (1-alpha)*c.dSmoothed
	d := c.dSmoothed
	decision := c.trigger.Observe(d)
	c.Trace = append(c.Trace, TracePoint{
		At:        c.K.Now(),
		Completed: c.finished,
		D:         d,
		Mode:      c.active,
		Decision:  decision,
	})
	switch decision {
	case migrate.Prewarm:
		c.prewarm()
	case migrate.Switch:
		c.doSwitch()
	}
}

// prewarm stages the bitstreams current candidates would need on the
// spare board's DDR cache (background SD reads on the idle board), so
// a subsequent switch pays no storage misses.
func (c *Cluster) prewarm() {
	spare := c.spareEngine()
	target := c.platforms[c.active.Other()]
	for _, a := range c.activeEngine().Active {
		warmNamesFor(spare, target, a)
	}
}

// acceptCross delivers the apps of a cross-pair transfer. Each goes to
// the board active when it lands, because a delivery can run D_switch
// and switch the pair. Its bitstreams travelled with the transfer, so
// they are staged in that board's DDR cache and its first PR pays no
// SD-card streaming.
func (c *Cluster) acceptCross(apps []*appmodel.App) {
	for _, a := range apps {
		next := c.activeEngine()
		warmNamesFor(next, c.platforms[c.active], a)
		next.InjectMigrated(a)
	}
}

func warmNamesFor(e *sched.Engine, target *fabric.Platform, a *appmodel.App) {
	for _, name := range stageBitstreams(target, a) {
		if e.Repo.Has(name) {
			e.Cache.Warm(name)
		}
	}
}

// doSwitch performs the cross-board switch: freeze the old board (its
// executing apps drain to completion there), migrate every ready app
// over the link, and point new arrivals at the new board.
func (c *Cluster) doSwitch() {
	if c.migrating {
		// A transfer is already in flight: refuse, and put the trigger
		// back in the active mode, so its hysteresis re-fires if the
		// condition persists.
		c.trigger.SetMode(c.active)
		return
	}
	old := c.activeEngine()
	from, to := c.active, c.trigger.Mode()
	if to == from {
		panic("cluster: switch to the already-active board")
	}
	// The target is still the spare here, so a first switch builds it
	// frozen, like a prewarm would.
	next := c.Engine(to)
	// Flip first: "the new FPGA resumes task execution and processes
	// upcoming new workloads".
	c.active = to
	if sink := old.Events; sink != nil {
		sink.Emit(trace.Event{At: c.K.Now(), Kind: trace.Switch, Board: c.firstBoard, Slot: -1,
			From: c.platforms[from].Title, To: c.platforms[to].Title})
	}
	old.SetFrozen(true)
	next.SetFrozen(false)
	moved := old.Policy().ExtractMigratable()
	for _, a := range moved {
		old.RemoveActive(a)
	}
	if len(moved) == 0 {
		return
	}
	c.migrating = true
	c.prewarm()
	migrate.ExecuteModel(c.K, &c.Link, moved, c.cost, func(apps []*appmodel.App) {
		c.migrating = false
		// Each delivery can run D_switch and switch the pair again, so
		// every app goes to the board active when it lands.
		for _, a := range apps {
			c.activeEngine().InjectMigrated(a)
		}
	}, func(m migrate.Migration) {
		c.Migrations = append(c.Migrations, m)
	})
}

// Summary reports a farm's switching, over every pair, and its
// per-pair breakdown. The cross-pair fields are zero for a farm of one
// pair. Response times merge through Cluster.AbsorbInto.
type Summary struct {
	Switches       int
	MeanSwitchTime sim.Duration
	MigratedApps   int
	Trace          []TracePoint

	// CrossSwitches counts rebalancer-driven pair-to-pair transfers;
	// CrossMigratedApps and MeanCrossTime price them.
	CrossSwitches     int
	CrossMigratedApps int
	MeanCrossTime     sim.Duration
	// PairStats breaks the run down per switching pair.
	PairStats []PairStat
}

// addSwitches adds a pair's switches to the summary's switch and
// migrated-app counts and returns their summed switch time.
func (s *Summary) addSwitches(migs []migrate.Migration) sim.Duration {
	s.Switches += len(migs)
	var total sim.Duration
	for _, m := range migs {
		s.MigratedApps += m.Apps
		total += m.Duration
	}
	return total
}

// meanOver turns a duration total into a mean over n (zero for n 0).
func meanOver(total sim.Duration, n int) sim.Duration {
	if n == 0 {
		return 0
	}
	return total / sim.Duration(n)
}

// AbsorbInto merges the pair's boards into each aggregator, base then
// boost. A board that was never built merges as the idle board it
// would have been: its platform's slot capacity, in the metrics mode of
// the pair's other board, or of the farm's build hook when neither is
// built (see metrics.Collector.AbsorbIdle).
func (c *Cluster) AbsorbInto(aggs ...*metrics.Collector) {
	for _, mode := range pairModes {
		e := c.engines[mode]
		var like *metrics.Collector
		if e == nil {
			if other := c.engines[mode.Other()]; other != nil {
				like = other.Col
			} else {
				like = c.farm.idleLike()
			}
		}
		for _, agg := range aggs {
			if e != nil {
				agg.Absorb(e.Col)
			} else {
				agg.AbsorbIdle(c.platforms[mode].SlotCapacity(), like)
			}
		}
	}
}
