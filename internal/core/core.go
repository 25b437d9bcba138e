package core

import (
	"fmt"

	"versaslot/internal/appmodel"
	"versaslot/internal/bitstream"
	"versaslot/internal/fabric"
	"versaslot/internal/hypervisor"
	"versaslot/internal/metrics"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// SystemConfig selects a policy and its platform.
type SystemConfig struct {
	// Policy picks the scheduling system under test.
	Policy sched.Kind
	// Params overrides hardware/control-plane constants; zero value
	// means sched.DefaultParams().
	Params *sched.Params
	// Seed seeds the simulation kernel.
	Seed uint64
}

// PlatformFor returns the platform and core model each policy runs on
// by default; the declaration lives with the policy's registry entry,
// mirroring the paper's evaluation setup.
func PlatformFor(k sched.Kind) (*fabric.Platform, hypervisor.CoreModel) {
	r, ok := sched.ByKind(k)
	if !ok {
		panic(fmt.Sprintf("core: unknown policy kind %v", k))
	}
	return fabric.MustPlatform(r.Platform), r.Core
}

// System is one configured board ready to execute workloads.
type System struct {
	Kernel *sim.Kernel
	Engine *sched.Engine
	Policy sched.Policy
	cfg    SystemConfig
}

// NewSystem builds a system for the config.
func NewSystem(cfg SystemConfig) *System {
	r, ok := sched.ByKind(cfg.Policy)
	if !ok {
		panic(fmt.Sprintf("core: unknown policy kind %v", cfg.Policy))
	}
	sys, err := newSystemFor(r, nil, cfg.Seed, cfg.Params)
	if err != nil {
		panic(err)
	}
	return sys
}

// NewRegisteredSystem builds a system for a registry policy name on
// the policy's declared platform; this is the string-keyed path the
// versaslot facade and third-party policies use.
func NewRegisteredSystem(name string, seed uint64, params *sched.Params) (*System, error) {
	return NewPlatformSystem(name, nil, seed, params)
}

// NewPlatformSystem builds a system for a registry policy name on an
// explicit platform (nil means the policy's declared platform). The
// platform may be a registry entry or an inline custom platform; the
// policy must be compatible with it (a DPR policy cannot drive the
// monolithic baseline template, the Big.Little policy needs a
// heterogeneous class mix).
func NewPlatformSystem(name string, platform *fabric.Platform, seed uint64, params *sched.Params) (*System, error) {
	r, ok := sched.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown policy %q (registered: %v)", name, sched.Names())
	}
	return newSystemFor(r, platform, seed, params)
}

func newSystemFor(r *sched.Registration, platform *fabric.Platform, seed uint64, params *sched.Params) (*System, error) {
	if platform == nil {
		platform = fabric.MustPlatform(r.Platform)
	} else if err := sched.CompatiblePlatform(r, platform); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p := sched.DefaultParams()
	if params != nil {
		p = *params
	}
	return newSystem(seed, p, platform, r.Core, bitstream.RepoFor(platform), r.Factory(),
		SystemConfig{Policy: r.Kind, Params: params, Seed: seed}), nil
}

// systemBlock is a system with its kernel, board and engine, built in
// place as one allocation.
type systemBlock struct {
	sys    System
	kernel sim.Kernel
	board  fabric.Board
	engine sched.Engine
}

// newSystem builds a single-board system as one block through the
// kernel's, board's and engine's Init: beside the block, only the
// board's slab, the engine's slot records and the policy allocate.
func newSystem(seed uint64, p sched.Params, platform *fabric.Platform, model hypervisor.CoreModel,
	repo *bitstream.Repository, policy sched.Policy, cfg SystemConfig) *System {
	b := new(systemBlock)
	b.kernel.Init(seed)
	slab := fabric.MakeSlab(platform.SlotCount(), len(platform.Classes))
	b.board.Init(0, platform, &slab)
	b.engine.Init(&b.kernel, p, &b.board, model, repo)
	b.engine.SetPolicy(policy)
	b.sys = System{Kernel: &b.kernel, Engine: &b.engine, Policy: policy, cfg: cfg}
	return &b.sys
}

// NewCustomSystem builds a VersaSlot system on an arbitrary Big/Little
// slot mix (a Big slot occupies two Little slots' fabric area; the mix
// must fit 8 Little-equivalents). With any Big slots present the
// Big.Little policy drives the board; otherwise Only.Little. This is
// the paper's "any Big/Little configuration" extension, used by the
// slot-configuration sweep in the benchmark harness.
func NewCustomSystem(big, little int, seed uint64, params *sched.Params) *System {
	p := sched.DefaultParams()
	if params != nil {
		p = *params
	}
	kind := sched.KindVersaSlotOL
	if big > 0 {
		kind = sched.KindVersaSlotBL
	}
	return newSystem(seed, p, fabric.CustomBigLittle(big, little), hypervisor.DualCore, bitstream.SuiteRepo(),
		sched.New(kind), SystemConfig{Policy: kind, Seed: seed})
}

// Result is one run's outcome.
type Result struct {
	Policy    sched.Kind
	Condition string
	Summary   metrics.Summary
	Samples   []metrics.ResponseSample
	// BySpec breaks response times down per application type.
	BySpec []metrics.SpecBreakdown
	// CacheHits/CacheMisses report bitstream cache behaviour.
	CacheHits, CacheMisses uint64
}

// Run executes one workload sequence on a fresh system.
func Run(cfg SystemConfig, seq *workload.Sequence) (*Result, error) {
	sys := NewSystem(cfg)
	apps, err := seq.Instantiate(0)
	if err != nil {
		return nil, err
	}
	return sys.Execute(seq.Condition, apps)
}

// Execute injects apps and runs to completion.
func (s *System) Execute(condition string, apps []*appmodel.App) (*Result, error) {
	s.Engine.InjectSequence(apps)
	s.Kernel.Run()
	s.Engine.FlushResidency()
	if n := s.Engine.UnfinishedCount(); n > 0 {
		s.Engine.CheckQuiescent() // panics with diagnostics
		return nil, fmt.Errorf("core: %d apps unfinished", n)
	}
	hits, misses := s.Engine.Cache.Stats()
	return &Result{
		Policy:      s.cfg.Policy,
		Condition:   condition,
		Summary:     s.Engine.Col.Summarize(),
		Samples:     s.Engine.Col.Responses,
		BySpec:      s.Engine.Col.BySpec(),
		CacheHits:   hits,
		CacheMisses: misses,
	}, nil
}
