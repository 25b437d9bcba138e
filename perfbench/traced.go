package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// tracedOp is what one traced operation measured.
type tracedOp struct {
	wall     time.Duration
	layers   map[string]time.Duration
	counts   layerCounts
	gcCycles uint32
	gcPause  time.Duration
}

// mirrorOp drives every scenario of the operation through the traced
// layer path, checking each mirrored Summary against the facade's.
func (b *bench) mirrorOp(rt *runTrace, shards int) tracedOp {
	var op tracedOp
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cache := make(seqCache)
	op.wall = rt.operation("operation", func() {
		for i, s := range b.scen {
			if shards > 0 {
				s.Shards = shards
			}
			err := guard(func() error {
				sum, c, err := mirror(rt, s, cache)
				if err != nil {
					return err
				}
				op.counts.add(c)
				return sameSummary(s, sum, b.ref[i])
			})
			b.tally.record(1, err)
		}
		for _, err := range b.broken {
			b.tally.record(1, err)
		}
	})
	runtime.ReadMemStats(&m1)
	op.layers = rt.times
	op.gcCycles = m1.NumGC - m0.NumGC
	op.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return op
}

// traced runs the traced path for the given duration and returns the
// per-layer metrics. The first part alternates untraced facade
// operations with traced ones under a CPU profile; the rest measures
// how the parallel unit scales (shard width, GOMAXPROCS 1 against the
// host's). Spans go to a Chrome trace file in outDir.
func (b *bench) traced(seconds float64, outDir string) map[string]dist {
	if len(b.scen) == 0 {
		return nil
	}
	tr := newTracer()
	start := time.Now()
	profilePath := filepath.Join(outDir, fmt.Sprintf("cpu-%s.pprof", b.w.name))
	profile, err := os.Create(profilePath)
	b.tally.check(err)
	if err == nil {
		// Sample at 500 Hz rather than the default 100 Hz so that a short
		// run still gives each package enough samples. The runtime warns
		// on standard error that StartCPUProfile cannot reset the rate;
		// the rate set here is the one used.
		runtime.SetCPUProfileRate(500)
		b.tally.check(pprof.StartCPUProfile(profile))
	}

	// Facade operations run the sweep on one worker here, so that they
	// compare with the sequential traced path.
	var facadeWalls []time.Duration
	var ops []tracedOp
	phaseA := start.Add(time.Duration(0.6 * seconds * float64(time.Second)))
	for i := 0; len(ops) < 3 || time.Now().Before(phaseA); i++ {
		facade := func() {
			t0 := time.Now()
			res, err := b.facadeOp(1)
			facadeWalls = append(facadeWalls, time.Since(t0))
			b.verify(res, err)
		}
		traced := func() { ops = append(ops, b.mirrorOp(newRunTrace(tr, len(ops)+1), 0)) }
		if i%2 == 0 {
			facade()
			traced()
		} else {
			traced()
			facade()
		}
	}
	pprof.StopCPUProfile()
	if profile != nil {
		b.tally.check(profile.Close())
	}

	out := b.layerMetrics(ops, facadeWalls)
	speedup, serial := b.scaling(start.Add(time.Duration(seconds*float64(time.Second))), ops[0].counts.shards)
	out["cluster.shard_speedup"] = one(speedup, "x")
	out["cluster.serial_fraction"] = one(serial, "ratio")

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	exe, err := os.Executable()
	b.tally.check(err)
	// Without a profile fold the cpu_share metrics stay unmeasured, which
	// marks the run incorrect.
	shares, err := cpuShares(ctx, exe, profilePath, layerRun)
	b.tally.check(err)
	for l, v := range shares {
		out["cpu_share."+l] = one(v, "ratio")
	}

	meta := map[string]any{"workload": b.w.name, "seed": b.seed, "host": hostBlock(".")}
	b.tally.check(tr.writeChrome(filepath.Join(outDir, fmt.Sprintf("trace-%s.json", b.w.name)), meta))
	return out
}

// layerMetrics turns the traced operations into per-layer metrics:
// medians of per-operation layer times and rates, and the counts of
// the simulated work of one operation, which repeat exactly.
func (b *bench) layerMetrics(ops []tracedOp, facadeWalls []time.Duration) map[string]dist {
	out := make(map[string]dist)
	series := func(f func(op tracedOp) float64) []float64 {
		xs := make([]float64, len(ops))
		for i, op := range ops {
			xs[i] = f(op)
		}
		return xs
	}
	for _, l := range layerNames {
		out[l+"_s"] = summarize(series(func(op tracedOp) float64 { return op.layers[l].Seconds() }), "s")
	}
	// What the facade spends outside the mirrored layer calls: defaults,
	// the sequence cache and Result assembly. Facade and traced
	// operations are separate runs, so each traced operation is compared
	// with the facade operation run next to it, which shares its host
	// conditions, and the median of the differences is reported.
	var merge, overhead []float64
	for i, op := range ops {
		var layered time.Duration
		for _, d := range op.layers {
			layered += d
		}
		facade := facadeWalls[i].Seconds()
		merge = append(merge, facade-layered.Seconds())
		overhead = append(overhead, 100*(op.wall.Seconds()-facade)/facade)
	}
	out["facade.merge_s"] = summarize(merge, "s")
	out["trace.overhead_pct"] = summarize(overhead, "%")
	out["sim.events_per_s"] = summarize(series(func(op tracedOp) float64 {
		return float64(op.counts.events) / op.layers[layerRun].Seconds()
	}), "1/s")
	out["runtime.gc_cycles"] = summarize(series(func(op tracedOp) float64 { return float64(op.gcCycles) }), "count")
	out["runtime.gc_pause_s"] = summarize(series(func(op tracedOp) float64 { return op.gcPause.Seconds() }), "s")

	c := ops[0].counts
	hitRatio := 0.0
	if c.cacheHits+c.cacheMisses > 0 {
		hitRatio = float64(c.cacheHits) / float64(c.cacheHits+c.cacheMisses)
	}
	for name, v := range map[string]float64{
		"workload.apps":               float64(c.apps),
		"cluster.dispatches":          float64(c.dispatches),
		"cluster.switches":            float64(c.switches),
		"cluster.cross_migrations":    float64(c.crossMigrations),
		"cluster.shards":              float64(c.shards),
		"sim.events":                  float64(c.events),
		"sched.pr_loads":              float64(c.prLoads),
		"sched.pr_blocked":            float64(c.prBlocked),
		"sched.preemptions":           float64(c.preemptions),
		"metrics.samples_retained":    float64(c.samplesRetained),
		"orchestrator.admitted":       float64(c.admitted),
		"orchestrator.rejected":       float64(c.rejected),
		"orchestrator.scale_ops":      float64(c.scaleOps),
		"orchestrator.drain_migrated": float64(c.drainMigrated),
		"fault.events":                float64(c.faultEvents),
		"fault.pr_retries":            float64(c.prRetries),
		"fault.crash_restarted":       float64(c.crashRestarted),
	} {
		out[name] = one(v, "count")
	}
	out["sched.launch_wait_s"] = one(c.launchWait.Seconds(), "sim_s")
	out["bitstream.cache_hit_ratio"] = one(hitRatio, "ratio")
	return out
}

// scaling measures the workload's parallel unit until the deadline
// (at least three rounds): Farm.Run at the resolved shard width
// against Shards: 1, and at GOMAXPROCS 1 against the host's. A sweep's
// parallel unit is its RunMany batch. It returns the shard speedup
// (1 when the width is 1) and the Amdahl serial fraction f fitted from
// T(N)/T(1) = f + (1 − f)/N with N = GOMAXPROCS.
func (b *bench) scaling(deadline time.Time, width int) (speedup, serial float64) {
	procs := runtime.GOMAXPROCS(0)
	unit := func(shards int) float64 {
		if b.w.sweep {
			t0 := time.Now()
			res, err := b.facadeOp(b.workers)
			wall := time.Since(t0).Seconds()
			b.verify(res, err)
			return wall
		}
		op := b.mirrorOp(newRunTrace(nil, 0), shards)
		return op.layers[layerRun].Seconds()
	}
	var atHost, atOne, sequential []float64
	for len(atHost) < 3 || time.Now().Before(deadline) {
		atHost = append(atHost, unit(width))
		if width > 1 {
			sequential = append(sequential, unit(1))
		}
		prev := runtime.GOMAXPROCS(1)
		atOne = append(atOne, unit(width))
		runtime.GOMAXPROCS(prev)
	}
	_, host, _ := quartiles(atHost)
	speedup = 1
	if width > 1 {
		_, seq, _ := quartiles(sequential)
		speedup = seq / host
	}
	serial = 1
	if procs > 1 {
		_, t1, _ := quartiles(atOne)
		s := t1 / host
		serial = min(1, max(0, (float64(procs)/s-1)/float64(procs-1)))
	}
	return speedup, serial
}
