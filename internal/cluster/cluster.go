package cluster

import (
	"fmt"

	"versaslot/internal/appmodel"
	"versaslot/internal/bitstream"
	"versaslot/internal/bundle"
	"versaslot/internal/fabric"
	"versaslot/internal/hypervisor"
	"versaslot/internal/interlink"
	"versaslot/internal/metrics"
	"versaslot/internal/migrate"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
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

// platformFor resolves the configured platform of a mode, defaulting
// to the paper's pair.
func (c Config) platformFor(m migrate.Mode) (*fabric.Platform, error) {
	name := c.BasePlatform
	fallback := fabric.ZCU216OnlyLittle
	if m == migrate.Boost {
		name, fallback = c.BoostPlatform, fabric.ZCU216BigLittle
	}
	if name == "" {
		name = fallback
	}
	p, ok := fabric.LookupPlatform(name)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown platform %q (registered: %v)", name, fabric.PlatformNames())
	}
	if p.Virtual {
		return nil, fmt.Errorf("cluster: platform %q is the monolithic baseline template; switching pairs need DPR slots", p.Name)
	}
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
// controller.
type Cluster struct {
	K    *sim.Kernel
	Cfg  Config
	Link *interlink.Link

	engines   [2]*sched.Engine
	platforms [2]*fabric.Platform
	active    migrate.Mode
	trigger   *migrate.Trigger

	updates    int
	dSmoothed  float64
	migrating  bool
	finished   int
	totalApps  int
	Trace      []TracePoint
	Migrations []migrate.Migration

	// arrivals delivers Inject's arrivals to the board active at each
	// arrival instant.
	arrivals *sched.ArrivalCursor

	// candScratch is onQueueUpdate's reusable D_switch candidate
	// buffer; the gather is consumed synchronously each evaluation.
	candScratch []*appmodel.App

	// OnSwitch fires when a cross-board switch is initiated (streaming
	// observer hook).
	OnSwitch func(from, to migrate.Mode)

	// cost, when set, prices switches with checkpoint/restore
	// semantics (installed by the fault subsystem's checkpoint
	// injector); nil keeps the classic payload.
	cost *migrate.CostModel
}

// New builds the cluster with both boards pre-configured (the paper's
// point: the static regions are fixed at start-up; switching between
// them at runtime is what live migration buys).
func New(cfg Config) *Cluster {
	c, err := NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// NewCluster builds the cluster, returning an error for unknown or
// unusable platform assignments.
func NewCluster(cfg Config) (*Cluster, error) {
	return buildCluster(sim.NewKernel(cfg.Seed), cfg, 0)
}

// buildCluster wires a switching pair onto an existing kernel; Farm
// places several pairs on one kernel.
func buildCluster(k *sim.Kernel, cfg Config, firstBoardID int) (*Cluster, error) {
	c := &Cluster{
		K:       k,
		Cfg:     cfg,
		Link:    interlink.NewDefault(k, fmt.Sprintf("aurora%d", firstBoardID/2)),
		active:  cfg.StartMode,
		trigger: migrate.NewTrigger(cfg.StartMode, cfg.ThresholdUp, cfg.ThresholdDown),
	}

	boardID := firstBoardID
	for _, mode := range pairModes {
		platform, err := cfg.platformFor(mode)
		if err != nil {
			return nil, err
		}
		// Boards share the process-wide immutable suite repository
		// whenever it covers the platform's slot classes: a farm of N
		// pairs no longer rebuilds 2N identical bitstream stores.
		board := fabric.NewBoard(boardID, platform)
		boardID++
		e := sched.NewEngine(k, cfg.Params, board, hypervisor.DualCore, bitstream.RepoFor(platform))
		var p sched.Policy
		if platform.Heterogeneous() {
			p = sched.NewVersaSlotBL()
		} else {
			p = sched.NewVersaSlotOL()
		}
		e.SetPolicy(p)
		e.OnQueueUpdate = c.onQueueUpdate
		e.OnAppFinished = c.onAppFinished
		c.engines[mode] = e
		c.platforms[mode] = platform
	}
	// The spare starts frozen: it only executes after a switch.
	c.spareEngine().SetFrozen(true)
	// Fault hook: an app crash-restarted on a frozen (draining) board
	// would otherwise queue there forever — no new placements happen
	// while frozen, and nothing unfreezes a drained board. Re-home it
	// to the active board with intra-pair migration bookkeeping.
	for _, mode := range pairModes {
		eng := c.engines[mode]
		eng.OnAppCrashed = func(a *appmodel.App) bool {
			if !eng.Frozen() || c.activeEngine() == eng {
				return false
			}
			eng.RemoveActive(a)
			c.activeEngine().InjectMigrated(a)
			return true
		}
	}
	return c, nil
}

// SetMigrationCost installs a checkpoint/restore cost model on the
// pair's switches; nil restores the classic payload.
func (c *Cluster) SetMigrationCost(m *migrate.CostModel) { c.cost = m }

// ActiveMode returns the currently active configuration.
func (c *Cluster) ActiveMode() migrate.Mode { return c.active }

// Engine returns the engine of a mode.
func (c *Cluster) Engine(mode migrate.Mode) *sched.Engine { return c.engines[mode] }

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

func (c *Cluster) activeEngine() *sched.Engine { return c.engines[c.active] }

func (c *Cluster) spareEngine() *sched.Engine { return c.engines[c.active.Other()] }

// Inject schedules the workload sequence: each arrival routes to
// whichever board is active at its arrival instant.
func (c *Cluster) Inject(seq *workload.Sequence) error {
	apps, err := seq.Instantiate(c.totalApps)
	if err != nil {
		return err
	}
	for _, a := range apps {
		if !c.CanHost(a.Spec) {
			return fmt.Errorf("cluster: app %v (%s) fits no slot class of the pair's platforms (%s/%s)",
				a, a.Spec.Name, c.platforms[migrate.Base].Name, c.platforms[migrate.Boost].Name)
		}
	}
	c.totalApps += len(apps)
	if c.arrivals == nil {
		c.arrivals = sched.NewArrivalCursor(c.K, func(a *appmodel.App) { c.activeEngine().InjectNow(a) })
	}
	c.arrivals.Schedule(apps)
	return nil
}

// Run executes to completion and returns the merged summary.
func (c *Cluster) Run() Summary {
	c.K.Run()
	for _, mode := range pairModes {
		e := c.engines[mode]
		e.FlushResidency()
		e.CheckQuiescent()
	}
	return c.summarize()
}

func (c *Cluster) onAppFinished(*appmodel.App) {
	c.finished++
}

// Quiescent reports whether every injected application has finished.
// Fault-injector chains gate on it so they stop firing once the
// workload drains instead of keeping the kernel alive forever.
func (c *Cluster) Quiescent() bool { return c.finished >= c.totalApps }

// onQueueUpdate implements the paper's cadence: every WindowUpdates
// changes of the candidate queue, re-evaluate D_switch and act.
func (c *Cluster) onQueueUpdate() {
	c.updates++
	if c.updates%c.Cfg.WindowUpdates != 0 {
		return
	}
	var blocked uint64
	for _, mode := range pairModes {
		b, _ := c.engines[mode].ResetWindow()
		blocked += b
	}
	// N_PR is the stock of PR tasks owned by completed and running
	// applications (R_c and R_s in Eq. 1): it grows as the run
	// progresses, which is what makes the Fig. 8 trace decay toward
	// the lower threshold once contention subsides.
	var prTasks uint64
	candidates := c.candScratch[:0]
	for _, mode := range pairModes {
		e := c.engines[mode]
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

func warmNamesFor(e *sched.Engine, target *fabric.Platform, a *appmodel.App) {
	for _, name := range stageBitstreams(target, a) {
		if _, err := e.Repo.Get(name); err == nil {
			e.Cache.Warm(name)
		}
	}
}

// doSwitch performs the cross-board switch: freeze the old board (its
// executing apps drain to completion there), migrate every ready app
// over the link, and point new arrivals at the new board.
func (c *Cluster) doSwitch() {
	if c.migrating {
		// A transfer is already in flight; the trigger's hysteresis
		// will re-fire if the condition persists.
		return
	}
	old := c.activeEngine()
	// Flip first: "the new FPGA resumes task execution and processes
	// upcoming new workloads".
	from := c.active
	c.active = c.trigger.Mode()
	next := c.activeEngine()
	if old == next {
		panic("cluster: switch to the already-active board")
	}
	if c.OnSwitch != nil {
		c.OnSwitch(from, c.active)
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
	migrate.ExecuteModel(c.K, c.Link, moved, c.cost, func(apps []*appmodel.App) {
		c.migrating = false
		for _, a := range apps {
			next.InjectMigrated(a)
		}
	}, func(m migrate.Migration) {
		c.Migrations = append(c.Migrations, m)
	})
}

// Summary merges a switching system's results: both boards of a pair,
// or every pair of a farm. Farm-only fields (cross-pair migration
// counts, per-pair breakdowns) are zero for a single pair.
type Summary struct {
	Apps           int
	MeanRT         sim.Duration
	P50, P95, P99  sim.Duration
	Switches       int
	MeanSwitchTime sim.Duration
	MigratedApps   int
	Trace          []TracePoint

	// CrossSwitches counts rebalancer-driven pair-to-pair transfers
	// (farm only); CrossMigratedApps and MeanCrossTime price them.
	CrossSwitches     int
	CrossMigratedApps int
	MeanCrossTime     sim.Duration
	// PairStats breaks the run down per switching pair (farm only).
	PairStats []PairStat
}

// setResponses copies a merged collector's response-time statistics.
func (s *Summary) setResponses(m metrics.Summary) {
	s.Apps, s.MeanRT = m.Apps, m.MeanRT
	s.P50, s.P95, s.P99 = m.P50, m.P95, m.P99
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

// summarize merges both boards' collectors, base then boost.
func (c *Cluster) summarize() Summary {
	var col metrics.Collector
	for _, mode := range pairModes {
		col.Absorb(c.engines[mode].Col)
	}
	s := Summary{Trace: c.Trace}
	s.setResponses(col.Summarize())
	s.MeanSwitchTime = meanOver(s.addSwitches(c.Migrations), s.Switches)
	return s
}

// String renders a one-line summary.
func (s Summary) String() string {
	return fmt.Sprintf("apps=%d meanRT=%v p95=%v p99=%v switches=%d meanSwitch=%v migrated=%d",
		s.Apps, s.MeanRT, s.P95, s.P99, s.Switches, s.MeanSwitchTime, s.MigratedApps)
}
