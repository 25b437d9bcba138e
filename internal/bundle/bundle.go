package bundle

import (
	"sync"

	"versaslot/internal/appmodel"
	"versaslot/internal/bitstream"
	"versaslot/internal/fabric"
	"versaslot/internal/sim"
)

// Size is the paper's bundling factor: "We set the bundling size to be
// 3 based on the Big slot's resource capacity to accommodate tasks and
// its fewer idle task cycles in pipelines than a larger size."
const Size = 3

// CanBundleIn reports whether an application can execute in slots of
// the given capacity: its task count must divide by the bundle size and
// every consecutive triple must fit the capacity after eta-scaled
// consolidation. This is the canBundle(Ai) predicate of Algorithm 1,
// parameterized by the slot class the bundles would target.
func CanBundleIn(spec *appmodel.AppSpec, cap fabric.ResVec) bool {
	if len(spec.Tasks) == 0 || len(spec.Tasks)%Size != 0 {
		return false
	}
	g := bitstream.NewGenerator()
	for b := 0; b < len(spec.Tasks)/Size; b++ {
		impl, _ := g.BundleRes(spec, b)
		if !impl.FitsIn(cap) {
			return false
		}
	}
	return true
}

// CanBundle is CanBundleIn against the paper's Big slot capacity.
func CanBundle(spec *appmodel.AppSpec) bool {
	return CanBundleIn(spec, fabric.BigSlotCap)
}

// Count returns the number of bundles of an app (0 if not bundleable).
func Count(spec *appmodel.AppSpec) int {
	if !CanBundle(spec) {
		return 0
	}
	return len(spec.Tasks) / Size
}

// Hostable reports whether an application can execute at all on a
// platform: either every task fits the platform's base (smallest) slot
// class, or — on heterogeneous platforms — the app bundles into the
// largest class. Capacity-aware farm dispatchers route around pairs
// whose platforms cannot host an arriving application.
func Hostable(spec *appmodel.AppSpec, p *fabric.Platform) bool {
	base := p.Smallest().Cap
	all := true
	for _, t := range spec.Tasks {
		if !t.Impl.FitsIn(base) {
			all = false
			break
		}
	}
	if all {
		return true
	}
	return p.Heterogeneous() && CanBundleIn(spec, p.Largest().Cap)
}

// SelectMode picks the internal organization of one bundle for a given
// batch size, per the paper's criterion: serial execution is preferable
// when Tmax*(Nbatch+2) > (T1+T2+T3)*Nbatch; otherwise the parallel
// (internally pipelined) bitstream is selected. The comparison uses the
// implemented bundles' effective per-item times (BundleTiming), which
// fold in the on-chip streaming factors.
func SelectMode(spec *appmodel.AppSpec, b int, batch int) appmodel.BundleMode {
	pFirst, pRest := appmodel.BundleTiming(spec, Size, b, appmodel.BundleParallel)
	sFirst, sRest := appmodel.BundleTiming(spec, Size, b, appmodel.BundleSerial)
	parallel := pFirst + sim.Duration(int64(pRest)*int64(batch-1))
	serial := sFirst + sim.Duration(int64(sRest)*int64(batch-1))
	if parallel > serial {
		return appmodel.BundleSerial
	}
	return appmodel.BundleParallel
}

// Execution-plan interning. A stage plan's definitions are pure
// functions of the spec pointer (workload specs are shared
// package-level values), the target slot class and — for bundles — the
// batch size; at farm scale the same handful of keys recurs for every
// one of thousands of arrivals. The caches below build each plan when
// the first app with its key arrives and hand out the shared read-only
// definitions, so installing a plan on an app allocates only its
// per-app run state (appmodel.App.Install). A plain map under RWMutex
// beats sync.Map here: struct keys box into interfaces on every
// sync.Map lookup, which allocates on the very path this exists to keep
// allocation-free. Growth is bounded by the (tiny) cross product of
// distinct specs, classes and batch sizes.
type planKind uint8

const (
	taskPlan planKind = iota
	bundlePlan
	monoPlan
)

// planKey identifies one shared plan. batch is set for bundle plans
// only (their modes depend on it), scale for monolithic plans only.
type planKey struct {
	spec  *appmodel.AppSpec
	class string
	kind  planKind
	batch int
	scale float64
}

type modesKey struct {
	spec  *appmodel.AppSpec
	batch int
}

var planCache = struct {
	mu    sync.RWMutex
	plans map[planKey][]appmodel.StageDef
	modes map[modesKey][]appmodel.BundleMode
}{
	plans: make(map[planKey][]appmodel.StageDef),
	modes: make(map[modesKey][]appmodel.BundleMode),
}

// interned returns m[key], building and storing it on a miss. When two
// goroutines miss at once, the first stored value wins and both return
// it, so every caller with the key sees the same shared value.
func interned[K comparable, V any](m map[K]V, key K, build func() V) V {
	planCache.mu.RLock()
	v, ok := m[key]
	planCache.mu.RUnlock()
	if ok {
		return v
	}
	v = build()
	planCache.mu.Lock()
	if old, ok := m[key]; ok {
		v = old
	} else {
		m[key] = v
	}
	planCache.mu.Unlock()
	return v
}

// plan returns the interned plan for key.
func plan(key planKey) []appmodel.StageDef {
	return interned(planCache.plans, key, func() []appmodel.StageDef {
		spec, class := key.spec, key.class
		switch key.kind {
		case bundlePlan:
			return appmodel.BundlePlan(spec, class, Size, Modes(spec, key.batch), func(b int, m appmodel.BundleMode) string {
				return bitstream.BundleName(spec.Name, b, m.String(), class)
			})
		case monoPlan:
			// The monolithic design runs every task from the one
			// full-fabric bitstream.
			full := bitstream.FullName(spec.Name)
			return appmodel.TaskPlan(spec, class, key.scale, func(int) string { return full })
		default:
			return appmodel.TaskPlan(spec, class, 1.0, func(task int) string {
				return bitstream.TaskName(spec.Name, spec.Tasks[task].Name, class)
			})
		}
	})
}

// Modes selects the execution mode of every bundle of spec for a batch.
// The result is interned and shared across calls — treat it as
// read-only.
func Modes(spec *appmodel.AppSpec, batch int) []appmodel.BundleMode {
	return interned(planCache.modes, modesKey{spec, batch}, func() []appmodel.BundleMode {
		modes := make([]appmodel.BundleMode, Count(spec))
		for b := range modes {
			modes[b] = SelectMode(spec, b, batch)
		}
		return modes
	})
}

// Build installs the bundled execution plan on app, targeting the
// named big-role slot class.
func Build(app *appmodel.App, class string) {
	app.Install(plan(planKey{spec: app.Spec, class: class, kind: bundlePlan, batch: app.Batch}))
}

// BuildTasks installs the per-task execution plan on app, targeting the
// named base slot class.
func BuildTasks(app *appmodel.App, class string) {
	app.Install(plan(planKey{spec: app.Spec, class: class, kind: taskPlan}))
}

// BuildMonolithic installs the exclusive baseline's plan on app: every
// task in the platform's base class, timed with the unpartitioned
// implementation's Spec.MonoFactor, all loaded by one full-fabric
// bitstream.
func BuildMonolithic(app *appmodel.App, class string) {
	app.Install(plan(planKey{spec: app.Spec, class: class, kind: monoPlan, scale: app.Spec.MonoFactor}))
}

// UtilGain is the Fig. 7 measurement for one application: the relative
// LUT/FF utilization increase of running its bundles in Big slots
// versus the same tasks spread over Little slots.
type UtilGain struct {
	App string
	// LUTPct and FFPct are percentage increases (e.g. 42.2 for +42.2%).
	LUTPct, FFPct float64
	// Bundles details each bundle: member Little-slot utilizations and
	// the bundled Big-slot utilization.
	Bundles []BundleUtil
}

// BundleUtil is the per-bundle detail backing Fig. 7 (right).
type BundleUtil struct {
	Index int
	// MemberLUT are the members' Little-slot LUT utilizations.
	MemberLUT []float64
	// AvgLUT is their average; BundleLUT the 3-in-1 implementation's
	// Big-slot LUT utilization.
	AvgLUT, BundleLUT float64
	AvgFF, BundleFF   float64
}

// MeasureUtilGain computes the utilization change bundling yields for
// spec. It returns ok=false for apps that cannot bundle (e.g. LeNet).
func MeasureUtilGain(spec *appmodel.AppSpec) (UtilGain, bool) {
	if !CanBundle(spec) {
		return UtilGain{App: spec.Name}, false
	}
	g := bitstream.NewGenerator()
	gain := UtilGain{App: spec.Name}
	var lutSum, ffSum float64
	n := Count(spec)
	for b := 0; b < n; b++ {
		impl, _ := g.BundleRes(spec, b)
		bLUT, bFF := impl.Utilization(fabric.BigSlotCap)
		var mLUT []float64
		var avgLUT, avgFF float64
		for _, t := range spec.Tasks[b*Size : (b+1)*Size] {
			lu, fu := t.Impl.Utilization(fabric.LittleSlotCap)
			mLUT = append(mLUT, lu)
			avgLUT += lu / Size
			avgFF += fu / Size
		}
		gain.Bundles = append(gain.Bundles, BundleUtil{
			Index:     b,
			MemberLUT: mLUT,
			AvgLUT:    avgLUT,
			BundleLUT: bLUT,
			AvgFF:     avgFF,
			BundleFF:  bFF,
		})
		lutSum += (bLUT/avgLUT - 1) * 100
		ffSum += (bFF/avgFF - 1) * 100
	}
	gain.LUTPct = lutSum / float64(n)
	gain.FFPct = ffSum / float64(n)
	return gain, true
}
