package cluster

import (
	"fmt"
	"sync"

	"versaslot/internal/appmodel"
	"versaslot/internal/bitstream"
	"versaslot/internal/fabric"
	"versaslot/internal/registry"
	"versaslot/internal/sched"
)

// Dispatcher decides which switching pair an arriving application
// joins. One instance is bound to one farm (Init runs before any
// arrival); Pick runs at each arrival instant on the simulation
// kernel. Implementations must be deterministic: any randomness must
// come from the farm kernel's RNG, never from global state, so that
// parallel sweeps reproduce sequential runs byte for byte.
//
// Dispatchers must be capacity- and availability-aware: on
// heterogeneous farms, Farm.DispatchEligible(a) returns the pair
// indices whose platforms can host the application, minus pairs
// degraded by an open board outage, and Pick must choose among them
// (an application that fits no slot of a small-board pair has to
// route elsewhere; the farm panics on a class-incompatible pick). A
// nil eligible set means every pair qualifies.
type Dispatcher interface {
	// Name identifies the dispatcher in results ("least-loaded").
	Name() string
	// Init binds the dispatcher to its farm before any arrivals.
	Init(f *Farm)
	// Pick returns the index of the pair app a joins.
	Pick(a *appmodel.App) int
}

// PoolAware is an optional Dispatcher extension: PoolChanged fires
// whenever the commissioned pair pool changes mid-run (a standby pair
// activates, a pair starts or finishes draining). Dispatchers that
// memoize anything derived from the pair set must drop those memos
// here — the farm's own eligibility cache is invalidated on the same
// transitions. Dispatchers without pool-derived state can ignore it.
type PoolAware interface {
	PoolChanged(f *Farm)
}

// DispatcherReg declares one farm dispatcher: canonical config/CLI
// name, display title, and a factory producing fresh instances (a
// dispatcher may carry per-run state, e.g. a round-robin cursor).
type DispatcherReg struct {
	// Name is the canonical lower-case lookup key ("least-loaded").
	Name string
	// Aliases are alternate lookup keys ("p2c").
	Aliases []string
	// Title is the display name ("Least loaded").
	Title string
	// Factory builds a fresh dispatcher instance per farm.
	Factory func() Dispatcher
}

// dispatchers mirrors the sched policy registry: the same generic
// string-keyed helper, keyed by dispatcher name.
var dispatchers = registry.New[*DispatcherReg]("dispatch")

// RegisterDispatcher adds a dispatcher to the farm registry. The name
// (and every alias) must be non-empty and not already taken; the
// factory must be non-nil.
func RegisterDispatcher(r DispatcherReg) error {
	if r.Name == "" {
		return fmt.Errorf("dispatch: register: empty dispatcher name")
	}
	if r.Factory == nil {
		return fmt.Errorf("dispatch: register %q: nil factory", r.Name)
	}
	if r.Title == "" {
		r.Title = r.Name
	}
	reg := r
	return dispatchers.Register(r.Name, &reg, r.Aliases...)
}

// MustRegisterDispatcher is RegisterDispatcher, panicking on error.
func MustRegisterDispatcher(r DispatcherReg) {
	if err := RegisterDispatcher(r); err != nil {
		panic(err)
	}
}

// LookupDispatcher resolves a dispatcher by name or alias
// (case-insensitive).
func LookupDispatcher(name string) (*DispatcherReg, bool) {
	return dispatchers.Lookup(name)
}

// DispatcherNames lists canonical dispatcher names in registration
// order (built-ins first).
func DispatcherNames() []string { return dispatchers.Names() }

// NewDispatcher builds a fresh instance of a registered dispatcher.
func NewDispatcher(name string) (Dispatcher, error) {
	r, ok := dispatchers.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("dispatch: unknown dispatcher %q (registered: %v)", name, DispatcherNames())
	}
	return r.Factory(), nil
}

// Built-in dispatcher names.
const (
	// DispatchLeastLoaded routes each arrival to the pair with the
	// fewest unfinished applications (the farm's default).
	DispatchLeastLoaded = "least-loaded"
	// DispatchRoundRobin cycles arrivals across pairs regardless of
	// load.
	DispatchRoundRobin = "round-robin"
	// DispatchPowerOfTwo samples two pairs uniformly and routes to the
	// less loaded of the two (the classic load-balancing result: most
	// of least-loaded's benefit at O(1) cost).
	DispatchPowerOfTwo = "power-of-two"
	// DispatchAffinity prefers pairs whose active board's bitstream
	// cache already holds the app's stages (skipping SD-card streaming
	// on PR), breaking ties toward the less loaded pair.
	DispatchAffinity = "affinity"
)

func init() {
	MustRegisterDispatcher(DispatcherReg{
		Name: DispatchLeastLoaded, Title: "Least loaded",
		Factory: func() Dispatcher { return &leastLoadedDispatch{} },
	})
	MustRegisterDispatcher(DispatcherReg{
		Name: DispatchRoundRobin, Aliases: []string{"rr"}, Title: "Round robin",
		Factory: func() Dispatcher { return &roundRobinDispatch{} },
	})
	MustRegisterDispatcher(DispatcherReg{
		Name: DispatchPowerOfTwo, Aliases: []string{"p2c", "power-of-two-choices"},
		Title:   "Power of two choices",
		Factory: func() Dispatcher { return &powerOfTwoDispatch{} },
	})
	MustRegisterDispatcher(DispatcherReg{
		Name: DispatchAffinity, Aliases: []string{"bitstream-affinity"},
		Title:   "Bitstream affinity",
		Factory: func() Dispatcher { return &affinityDispatch{} },
	})
}

// leastLoadedDispatch picks the pair with the fewest unfinished apps,
// reading the farm's incrementally-maintained load counters (O(pairs)
// per arrival instead of the former O(pairs x engines) queue scan).
// On heterogeneous farms the scan is restricted to eligible pairs.
type leastLoadedDispatch struct{ f *Farm }

func (d *leastLoadedDispatch) Name() string { return DispatchLeastLoaded }
func (d *leastLoadedDispatch) Init(f *Farm) { d.f = f }
func (d *leastLoadedDispatch) Pick(a *appmodel.App) int {
	if elig := d.f.DispatchEligible(a); elig != nil {
		best := elig[0]
		for _, i := range elig[1:] {
			if d.f.load[i] < d.f.load[best] {
				best = i
			}
		}
		return best
	}
	best := 0
	for i, load := range d.f.load {
		if load < d.f.load[best] {
			best = i
		}
	}
	return best
}

// roundRobinDispatch cycles arrivals across pairs, skipping pairs that
// cannot host the arriving application.
type roundRobinDispatch struct {
	f    *Farm
	next int
}

func (d *roundRobinDispatch) Name() string { return DispatchRoundRobin }
func (d *roundRobinDispatch) Init(f *Farm) { d.f = f }
func (d *roundRobinDispatch) Pick(a *appmodel.App) int {
	n := len(d.f.Pairs)
	if elig := d.f.DispatchEligible(a); elig != nil {
		// Advance the cursor past ineligible pairs; the cursor still
		// rotates over the full pair set so eligible apps keep cycling.
		for tries := 0; tries < n; tries++ {
			idx := d.next
			d.next = (d.next + 1) % n
			if containsPair(elig, idx) {
				return idx
			}
		}
		return elig[0]
	}
	idx := d.next
	d.next = (d.next + 1) % n
	return idx
}

// powerOfTwoDispatch samples two distinct pairs from the farm kernel's
// RNG and routes to the less loaded one (ties to the first sample).
// With one pair it degenerates to that pair. On heterogeneous farms
// the two samples are drawn from the eligible pair set.
type powerOfTwoDispatch struct{ f *Farm }

func (d *powerOfTwoDispatch) Name() string { return DispatchPowerOfTwo }
func (d *powerOfTwoDispatch) Init(f *Farm) { d.f = f }
func (d *powerOfTwoDispatch) Pick(a *appmodel.App) int {
	if elig := d.f.DispatchEligible(a); elig != nil {
		n := len(elig)
		if n == 1 {
			return elig[0]
		}
		rng := d.f.K.RNG()
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		if d.f.load[elig[j]] < d.f.load[elig[i]] {
			return elig[j]
		}
		return elig[i]
	}
	n := len(d.f.Pairs)
	if n == 1 {
		return 0
	}
	rng := d.f.K.RNG()
	i := rng.Intn(n)
	j := rng.Intn(n - 1)
	if j >= i {
		j++
	}
	if d.f.load[j] < d.f.load[i] {
		return j
	}
	return i
}

// affinityDispatch scores each pair by how many of the app's stage
// bitstreams its active board already caches (pre-warmed by earlier
// runs of the same spec, so PR pays no SD-card streaming), and picks
// the warmest eligible pair; load breaks ties, then pair index.
type affinityDispatch struct {
	f *Farm
}

func (d *affinityDispatch) Name() string { return DispatchAffinity }
func (d *affinityDispatch) Init(f *Farm) { d.f = f }

func (d *affinityDispatch) Pick(a *appmodel.App) int {
	elig := d.f.DispatchEligible(a)
	best, bestScore := -1, -1
	for i, p := range d.f.Pairs {
		if elig != nil && !containsPair(elig, i) {
			continue
		}
		score := cacheAffinity(p.Built(p.ActiveMode()), stageBitstreams(p.Platform(p.ActiveMode()), a))
		better := best < 0 || score > bestScore ||
			(score == bestScore && d.f.load[i] < d.f.load[best])
		if better {
			best, bestScore = i, score
		}
	}
	return best
}

// cacheAffinity counts how many of the named bitstreams are already
// resident in e's DDR cache. Contains does not touch LRU order, so
// scoring leaves the cache unperturbed; a board not built yet (nil)
// caches nothing and scores 0.
func cacheAffinity(e *sched.Engine, names []string) int {
	if e == nil {
		return 0
	}
	score := 0
	for _, name := range names {
		if e.Cache.Contains(name) {
			score++
		}
	}
	return score
}

// stageBitstreams lists the bitstream names an app would use on a
// platform — the same name set the pre-warm step stages ahead of a
// switch: per-task partials for the base class, plus (on heterogeneous
// platforms) the bundle partials for the big-role class. The list is a
// pure function of (spec, base class, big class), so it is built once
// per process and shared: callers must not mutate it.
func stageBitstreams(target *fabric.Platform, a *appmodel.App) []string {
	k := stageKey{spec: a.Spec, base: target.Smallest().Name}
	if target.Heterogeneous() {
		k.big = target.Largest().Name
	}
	stageNames.mu.RLock()
	names, ok := stageNames.m[k]
	stageNames.mu.RUnlock()
	if ok {
		return names
	}
	if k.big != "" {
		for b := 0; b < len(a.Spec.Tasks)/3; b++ {
			for _, mode := range []string{"par", "ser"} {
				names = append(names, bitstream.BundleName(a.Spec.Name, b, mode, k.big))
			}
		}
	}
	for _, t := range a.Spec.Tasks {
		names = append(names, bitstream.TaskName(a.Spec.Name, t.Name, k.base))
	}
	stageNames.mu.Lock()
	stageNames.m[k] = names
	stageNames.mu.Unlock()
	return names
}

// stageKey keys the stageBitstreams table. Platforms are keyed by
// their class names, not by pointer: inline platforms are rebuilt on
// every run, and the table is shared by every run of the process
// (RunMany workers read it concurrently).
type stageKey struct {
	spec      *appmodel.AppSpec
	base, big string
}

var stageNames = struct {
	mu sync.RWMutex
	m  map[stageKey][]string
}{m: make(map[stageKey][]string)}
