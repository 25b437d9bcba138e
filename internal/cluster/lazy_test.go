package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"versaslot/internal/metrics"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// lazyMerge is everything a farm run reports: its summary and a merge
// of every pair's boards through AbsorbInto, read in the same detail as
// the facade reads it. Probed is the merge's windows after one more
// response: a streaming merge opens a window for it and an exact one
// reports none, so the metrics mode the merge took shows even when no
// board ran.
type lazyMerge struct {
	Summary Summary
	Merged  metrics.Summary
	Windows []metrics.WindowStat
	BySpec  []metrics.SpecBreakdown
	End     sim.Time
	Probed  []metrics.WindowStat
}

// lazyRun runs a farm on seq (nil: no work) and returns what it
// reports. stream, when set, puts every board in streaming mode through
// the build hook; eager forces every board of every pair built through
// Engine before the workload is injected.
func lazyRun(t *testing.T, cfg FarmConfig, seq *workload.Sequence, stream *metrics.StreamConfig, eager bool) lazyMerge {
	t.Helper()
	f := MustNewFarm(cfg)
	if stream != nil {
		f.AddBuildHook(func(e *sched.Engine) { e.Col.EnableStreaming(*stream) })
	}
	if eager {
		for _, p := range f.Pairs {
			for _, mode := range pairModes {
				p.Engine(mode)
			}
		}
	}
	if seq != nil {
		if err := f.Inject(seq); err != nil {
			t.Fatal(err)
		}
	}
	out := lazyMerge{Summary: f.Run()}
	var agg metrics.Collector
	for _, p := range f.Pairs {
		p.AbsorbInto(&agg)
	}
	out.Merged, out.Windows, out.BySpec, out.End = agg.Summarize(), agg.Windows(), agg.BySpec(), agg.EndTime()
	agg.RecordResponse(metrics.ResponseSample{AppID: -1, Spec: "probe", Batch: 1, Response: sim.Millisecond, Finish: out.End})
	out.Probed = agg.Windows()
	return out
}

// TestLazyPairsMatchEager is the oracle of pairs built on first use:
// for every registered dispatcher, in exact and streaming metrics mode,
// a farm that builds its boards as work reaches them must report
// exactly what its twin reports whose every board was built before the
// first arrival. The workloads leave pairs without
// work (merged as idle boards), switch pairs (spares built mid-run) and
// rebalance across pairs; a farm that never gets work merges through
// the build hook's probe board.
func TestLazyPairsMatchEager(t *testing.T) {
	gen := func(cond workload.Condition, apps int, seed uint64) *workload.Sequence {
		p := workload.DefaultGenParams(cond)
		p.Apps = apps
		return workload.Generate(p, seed)
	}
	workloads := []struct {
		name  string
		pairs int
		seq   *workload.Sequence
	}{
		{"sparse", 16, gen(workload.Stress, 12, 3)},
		{"switching", 4, gen(workload.Realtime, 48, 1)},
		{"idle", 3, nil},
	}
	streams := []*metrics.StreamConfig{nil, {Window: sim.Second, MaxWindows: 8}}
	for _, w := range workloads {
		for _, name := range DispatcherNames() {
			for _, stream := range streams {
				label := fmt.Sprintf("%s/%s/stream=%v", w.name, name, stream != nil)
				t.Run(label, func(t *testing.T) {
					cfg := DefaultFarmConfig(w.pairs)
					cfg.Dispatcher = name
					cfg.RebalanceEvery = 2 * sim.Second
					lazy, eager := lazyRun(t, cfg, w.seq, stream, false), lazyRun(t, cfg, w.seq, stream, true)
					if !reflect.DeepEqual(lazy, eager) {
						t.Errorf("lazy farm reports\n%+v\nwant the eagerly built farm's\n%+v", lazy, eager)
					}
					if w.seq != nil && lazy.Merged.Apps != len(w.seq.Arrivals) {
						t.Errorf("%d of %d apps finished", lazy.Merged.Apps, len(w.seq.Arrivals))
					}
				})
			}
		}
	}
}

// TestRebalanceTickAllocs pins the rebalance tick at zero allocations
// once warm: it re-arms itself through a typed view of the farm, not a
// method value.
func TestRebalanceTickAllocs(t *testing.T) {
	cfg := DefaultFarmConfig(4)
	cfg.RebalanceEvery = sim.Second
	f := MustNewFarm(cfg)
	// An injected app the farm has not finished keeps the tick
	// re-arming; with every load at zero it finds nothing to move.
	f.totalApps = 1
	f.armRebalancer()
	if allocs := testing.AllocsPerRun(100, func() {
		if !f.Step() {
			t.Fatal("the rebalance tick did not re-arm")
		}
	}); allocs != 0 {
		t.Errorf("a warm rebalance tick allocates %.1f times, want 0", allocs)
	}
}
