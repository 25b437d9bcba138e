package sched

import (
	"sync"

	"versaslot/internal/appmodel"
	"versaslot/internal/bundle"
	"versaslot/internal/pipeline"
	"versaslot/internal/sim"
)

// Pipeline sizing cache. Algorithm 1 sizes every arriving app's task
// and bundle pipelines (pipeline.Plan.SizeIn), and the result is a pure
// function of the inputs below; across the apps of a run, and across
// the runs of a process, the same few inputs recur, so each is swept
// once per process. The map is shared by concurrent runs (RunMany
// workers, shard goroutines), hence the RWMutex; like bundle's plan
// caches it grows only with distinct inputs.
type sizeKey struct {
	spec     *appmodel.AppSpec
	class    string
	bundled  bool // the 3-in-1 plan, not the per-task plan
	batch    int
	load     sim.Duration
	maxSlots int
}

var sizeCache = struct {
	mu sync.RWMutex
	m  map[sizeKey][2]int
}{m: make(map[sizeKey][2]int)}

// sizePlan returns the (optimal, maximum useful) slot counts of the
// plan key names; ev is scratch for a sweep the cache has not seen.
func sizePlan(ev *pipeline.Eval, key sizeKey) (opt, maxUse int) {
	sizeCache.mu.RLock()
	r, ok := sizeCache.m[key]
	sizeCache.mu.RUnlock()
	if !ok {
		r[0], r[1] = key.plan().SizeIn(ev, key.maxSlots)
		sizeCache.mu.Lock()
		sizeCache.m[key] = r
		sizeCache.mu.Unlock()
	}
	return r[0], r[1]
}

// plan builds the pipeline the key sizes: per-task item times, or the
// bundles' steady item times with their first-item fill as extra.
func (k sizeKey) plan() pipeline.Plan {
	p := pipeline.Plan{Batch: k.batch, LoadTime: k.load}
	if !k.bundled {
		p.StageTimes = make([]sim.Duration, len(k.spec.Tasks))
		for i, t := range k.spec.Tasks {
			p.StageTimes[i] = t.Time
		}
		return p
	}
	modes := bundle.Modes(k.spec, k.batch)
	p.StageTimes = make([]sim.Duration, len(modes))
	p.FirstItemExtra = make([]sim.Duration, len(modes))
	for b, m := range modes {
		first, rest := appmodel.BundleTiming(k.spec, bundle.Size, b, m)
		p.StageTimes[b], p.FirstItemExtra[b] = rest, first-rest
	}
	return p
}
