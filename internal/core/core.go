package core

import (
	"fmt"

	"versaslot/internal/cluster"
	"versaslot/internal/fabric"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
)

// System is one board's kernel and engine.
//
// Deprecated: a single board is a fixed one-pair farm; build it with
// cluster.NewFarm and a cluster.Config.Policy.
type System struct {
	Kernel *sim.Kernel
	Engine *sched.Engine
}

// NewPlatformSystem builds a fixed one-pair farm of a registered policy
// on platform (nil: the policy's declared platform), seeded with seed,
// and returns its pair's kernel and its one board's engine.
//
// Deprecated: use cluster.NewFarm with a cluster.Config.Policy.
func NewPlatformSystem(name string, platform *fabric.Platform, seed uint64, params *sched.Params) (*System, error) {
	r, ok := sched.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown policy %q (registered: %v)", name, sched.Names())
	}
	cfg := cluster.FarmConfig{Pair: cluster.DefaultConfig(), Pairs: 1}
	cfg.Pair.Seed, cfg.Pair.Policy, cfg.Pair.Platform = seed, r, platform
	if params != nil {
		cfg.Pair.Params = *params
	}
	f, err := cluster.NewFarm(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p := f.Pairs[0]
	return &System{Kernel: p.K, Engine: p.Engine(p.ActiveMode())}, nil
}
