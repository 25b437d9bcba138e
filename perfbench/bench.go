package main

import (
	"fmt"
	"runtime"
	"time"

	"versaslot"
)

// bench holds one workload's scenarios for one seed, the Results of
// their first run, and the operation tally. Every later run of a
// scenario must reproduce its reference Result byte for byte.
type bench struct {
	w       *workloadDef
	seed    uint64
	scen    []versaslot.Scenario // scenarios every timed operation runs
	ref     []*versaslot.Result
	base    []string // digests of ref
	broken  []error  // scenarios that failed their first run, one error each
	workers int      // RunMany workers: at most one per usable CPU
	tally   tally
}

func newBench(w *workloadDef, seed uint64) *bench {
	return &bench{w: w, seed: seed, workers: min(runtime.NumCPU(), runtime.GOMAXPROCS(0))}
}

// runEach runs scenarios one at a time through versaslot.Run, each
// under its own panic guard and the per-Result checks.
func runEach(scen []versaslot.Scenario) ([]*versaslot.Result, []error) {
	res := make([]*versaslot.Result, len(scen))
	errs := make([]error, len(scen))
	for i, s := range scen {
		errs[i] = guard(func() error {
			r, err := versaslot.Run(s)
			if err == nil {
				err = checkResult(s, r)
			}
			res[i] = r
			return err
		})
	}
	return res, errs
}

// prepare runs the checks that need their own operations before any
// timing starts; they also warm the process up. It compares the
// default seed's Results with the pinned digest, records the reference
// Results of this seed's scenarios, and for a sharded workload compares
// the sharded Result with a Shards: 1 run. Every timed operation's
// Results are compared with the references, so each one is also
// byte-identical to the Shards: 1 Result.
//
// A scenario that fails its first run is left out of the timed
// operations, because the RunMany batches could not recover a panic
// raised on their worker goroutines; verify counts it as failed on
// every operation that would have run it.
func (b *bench) prepare() {
	pinned := b.w.scenarios(defaultSeed)
	res, errs := runEach(pinned)
	digests := make([]string, len(res))
	var pinErr error
	for i := range res {
		if errs[i] != nil {
			pinErr = errs[i]
			break
		}
		digests[i] = digest(res[i])
	}
	if pinErr == nil {
		if got, want := combinedDigest(digests), pinnedDigests[b.w.name]; got != want {
			pinErr = fmt.Errorf("%s: default-seed Result digest %s, pinned %s", b.w.name, got, want)
		}
	}
	b.tally.record(len(pinned), pinErr)

	all := b.w.scenarios(b.seed)
	res, errs = runEach(all)
	for i, r := range res {
		b.tally.record(1, errs[i])
		if errs[i] != nil {
			b.broken = append(b.broken, errs[i])
			continue
		}
		b.scen = append(b.scen, all[i])
		b.ref = append(b.ref, r)
		b.base = append(b.base, digest(r))
	}

	if b.w.shardCheck && len(b.scen) > 0 {
		s := b.scen[0]
		s.Shards = 1
		b.tally.record(1, guard(func() error {
			r, err := versaslot.Run(s)
			if err != nil {
				return err
			}
			if digest(r) != b.base[0] {
				return fmt.Errorf("%s: Shards: 1 Result differs from the auto-sharded Result", s.Name)
			}
			return nil
		}))
	}
}

// verify checks one operation's Results against the per-Result checks
// and the reference digests, recording one operation per scenario,
// and one failed operation per scenario that failed its first run.
func (b *bench) verify(res []*versaslot.Result, opErr error) {
	for i, s := range b.scen {
		err := opErr
		if err == nil && i < len(res) {
			err = checkResult(s, res[i])
			if err == nil && digest(res[i]) != b.base[i] {
				err = fmt.Errorf("%s: repeated run gave a different Result", s.Name)
			}
		}
		b.tally.record(1, err)
	}
	for _, err := range b.broken {
		b.tally.record(1, err)
	}
}

// facadeOp is one untraced operation through the public facade: a
// RunMany batch over the sweep, or one Run of the workload's scenario.
func (b *bench) facadeOp(workers int) ([]*versaslot.Result, error) {
	var res []*versaslot.Result
	err := guard(func() error {
		var err error
		if b.w.sweep {
			res, err = versaslot.RunMany(b.scen, workers)
			return err
		}
		for _, s := range b.scen {
			r, err := versaslot.Run(s)
			if err != nil {
				return err
			}
			res = append(res, r)
		}
		return nil
	})
	return res, err
}

// probeOp runs every scenario through a Runner with an observer and
// returns, per scenario, the host time from entering Run to the first
// simulated event the observer receives: the run's setup.
func (b *bench) probeOp() ([]*versaslot.Result, []float64, error) {
	var res []*versaslot.Result
	var setups []float64
	err := guard(func() error {
		for _, s := range b.scen {
			var first time.Time
			runner := versaslot.NewRunner(versaslot.WithObserver(func(versaslot.Event) {
				if first.IsZero() {
					first = time.Now()
				}
			}))
			start := time.Now()
			r, err := runner.Run(s)
			if err != nil {
				return err
			}
			res = append(res, r)
			if !first.IsZero() {
				setups = append(setups, first.Sub(start).Seconds())
			}
		}
		return nil
	})
	return res, setups, err
}

func appsOf(res []*versaslot.Result) int {
	n := 0
	for _, r := range res {
		if r != nil {
			n += r.Summary.Apps
		}
	}
	return n
}

// endToEnd measures the untraced facade for the given duration and
// returns the end-to-end metrics. Operations alternate between plain
// runs (wall time, throughput, allocation, peak resident set) and
// observer probes (setup time); every operation's Results are checked.
// Each operation starts from a collected heap, so that one operation's
// garbage does not land on the next one's clock.
func (b *bench) endToEnd(seconds float64) map[string]dist {
	if len(b.scen) == 0 {
		return nil
	}
	// Where the kernel lets the benchmark reset the peak resident set,
	// peak_rss_mb is the median of per-operation peaks; elsewhere it is
	// the process's peak over the whole run.
	perOpRSS := resetPeakRSS() == nil
	var walls, rates, allocMB, mallocs, setups, rss []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	hardStop := deadline.Add(time.Minute)
	for i := 0; ; i++ {
		now := time.Now()
		enough := len(walls) >= 3 && len(setups) >= 1
		if now.After(hardStop) || now.After(deadline) && enough {
			break
		}
		runtime.GC()
		if i%2 == 1 {
			res, s, err := b.probeOp()
			b.verify(res, err)
			setups = append(setups, s...)
			continue
		}
		if perOpRSS {
			perOpRSS = resetPeakRSS() == nil
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res, err := b.facadeOp(b.workers)
		wall := time.Since(start).Seconds()
		runtime.ReadMemStats(&m1)
		peak := peakRSSMiB()
		b.verify(res, err)
		if err != nil {
			continue
		}
		rss = append(rss, peak)
		walls = append(walls, wall)
		rates = append(rates, float64(appsOf(res))/wall)
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))
	}
	peak := summarize(rss, "MiB")
	if !perOpRSS {
		peak = one(peakRSSMiB(), "MiB")
	}
	return map[string]dist{
		"wall_s":      summarize(walls, "s"),
		"setup_s":     summarize(setups, "s"),
		"apps_per_s":  summarize(rates, "1/s"),
		"alloc_mb":    summarize(allocMB, "MiB"),
		"heap_allocs": summarize(mallocs, "count"),
		"peak_rss_mb": peak,
	}
}
