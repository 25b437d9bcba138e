package cluster

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"versaslot/internal/appmodel"
	"versaslot/internal/bitstream"
	"versaslot/internal/fabric"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

func TestDispatcherRegistryBuiltins(t *testing.T) {
	names := DispatcherNames()
	want := []string{DispatchLeastLoaded, DispatchRoundRobin, DispatchPowerOfTwo, DispatchAffinity}
	if len(names) < len(want) {
		t.Fatalf("DispatcherNames() = %v, want at least %v", names, want)
	}
	for i, name := range want {
		if names[i] != name {
			t.Errorf("DispatcherNames()[%d] = %q, want %q", i, names[i], name)
		}
	}
	for _, name := range want {
		r, ok := LookupDispatcher(name)
		if !ok {
			t.Fatalf("LookupDispatcher(%q) failed", name)
		}
		d := r.Factory()
		if d == nil || d.Name() != name {
			t.Errorf("factory for %q built %v", name, d)
		}
	}
	// Aliases resolve to the same registration.
	if r, ok := LookupDispatcher("p2c"); !ok || r.Name != DispatchPowerOfTwo {
		t.Error("alias p2c did not resolve to power-of-two")
	}
}

func TestDispatcherRegisterValidation(t *testing.T) {
	if err := RegisterDispatcher(DispatcherReg{Name: "", Factory: func() Dispatcher { return &roundRobinDispatch{} }}); err == nil {
		t.Error("RegisterDispatcher with empty name succeeded")
	}
	if err := RegisterDispatcher(DispatcherReg{Name: "nil-factory"}); err == nil {
		t.Error("RegisterDispatcher with nil factory succeeded")
	}
	// Duplicate canonical name.
	err := RegisterDispatcher(DispatcherReg{Name: DispatchRoundRobin,
		Factory: func() Dispatcher { return &roundRobinDispatch{} }})
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate RegisterDispatcher error = %v, want 'already registered'", err)
	}
	// Duplicate via alias.
	err = RegisterDispatcher(DispatcherReg{Name: "fresh-dispatch", Aliases: []string{"p2c"},
		Factory: func() Dispatcher { return &roundRobinDispatch{} }})
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("alias-duplicate error = %v, want 'already registered'", err)
	}
	if _, ok := LookupDispatcher("fresh-dispatch"); ok {
		t.Error("failed registration leaked its canonical name into the registry")
	}
}

func TestNewFarmUnknownDispatcher(t *testing.T) {
	cfg := DefaultFarmConfig(2)
	cfg.Dispatcher = "no-such-dispatcher"
	if _, err := NewFarm(cfg); err == nil {
		t.Error("NewFarm with unknown dispatcher succeeded")
	}
}

// TestDispatchersComplete runs every registered dispatcher over the
// same workload: all apps must finish and the incremental load
// counters must drain to zero.
func TestDispatchersComplete(t *testing.T) {
	for _, name := range DispatcherNames() {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultFarmConfig(3)
			cfg.Dispatcher = name
			f := MustNewFarm(cfg)
			p := workload.DefaultGenParams(workload.Stress)
			p.Apps = 30
			seq := workload.Generate(p, 9000)
			if err := f.Inject(seq); err != nil {
				t.Fatal(err)
			}
			f.Run()
			resp := merged(f)
			if resp.Apps != 30 {
				t.Fatalf("finished %d of 30", resp.Apps)
			}
			if f.UnfinishedCount() != 0 {
				t.Fatal("unfinished apps remain")
			}
			for i, l := range f.LoadView() {
				t.Logf("pair %d routed %d", i, f.routed[i])
				if l != 0 {
					t.Errorf("pair %d load counter ended at %d, want 0", i, l)
				}
			}
			routed := 0
			for _, n := range f.Routed() {
				routed += n
			}
			if routed != 30 {
				t.Fatalf("routed %d arrivals, want 30", routed)
			}
		})
	}
}

// TestAffinityPrefersWarmPair pins the affinity scoring: with pair 1's
// active board pre-warmed for an app's bitstreams and loads equal, the
// dispatcher must pick pair 1.
func TestAffinityPrefersWarmPair(t *testing.T) {
	f := MustNewFarm(FarmConfig{Pair: DefaultConfig(), Pairs: 3, Dispatcher: DispatchAffinity})
	p := workload.DefaultGenParams(workload.Standard)
	p.Apps = 1
	apps, err := workload.Generate(p, 7).Instantiate(0)
	if err != nil {
		t.Fatal(err)
	}
	a := apps[0]
	warm := f.Pairs[1].activeEngine()
	warmNamesFor(warm, warm.Board.Platform, a)
	if idx := f.dispatcher.Pick(a); idx != 1 {
		t.Errorf("affinity picked pair %d, want the pre-warmed pair 1", idx)
	}
}

// TestRebalancerMigratesAcrossPairs drives a skewed farm: round-robin
// dispatch ignores load, so pair queues diverge as service times do,
// and the rebalancer must repair the imbalance with at least one
// cross-pair live migration — the acceptance bar for the farm being a
// real rack-scale orchestrator rather than K isolated pairs.
func TestRebalancerMigratesAcrossPairs(t *testing.T) {
	cfg := DefaultFarmConfig(3)
	cfg.Dispatcher = DispatchRoundRobin
	cfg.RebalanceEvery = 2 * sim.Second
	f := MustNewFarm(cfg)
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 60
	seq := workload.Generate(p, 23)
	if err := f.Inject(seq); err != nil {
		t.Fatal(err)
	}
	sum := f.Run()
	resp := merged(f)
	if resp.Apps != 60 {
		t.Fatalf("finished %d of 60", resp.Apps)
	}
	if sum.CrossSwitches < 1 {
		t.Fatalf("rebalancer performed %d cross-pair migrations, want >= 1", sum.CrossSwitches)
	}
	if sum.CrossMigratedApps < sum.CrossSwitches {
		t.Errorf("cross-pair migrations %d moved only %d apps", sum.CrossSwitches, sum.CrossMigratedApps)
	}
	if sum.MeanCrossTime <= 0 || sum.MeanCrossTime > 100*sim.Millisecond {
		t.Errorf("mean cross-pair overhead %v outside the ms scale", sum.MeanCrossTime)
	}
	var in, out int
	for _, ps := range sum.PairStats {
		in += ps.MigratedIn
		out += ps.MigratedOut
	}
	if in != out || in != sum.CrossMigratedApps {
		t.Errorf("pair migration ledger in=%d out=%d, want both = %d", in, out, sum.CrossMigratedApps)
	}
	if f.UnfinishedCount() != 0 {
		t.Fatal("unfinished apps remain after rebalancing")
	}
}

// TestFarmPairStats checks the per-pair breakdown: counts reconcile
// with the merged summary and utilizations are sane.
func TestFarmPairStats(t *testing.T) {
	f := MustNewFarm(DefaultFarmConfig(3))
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 30
	seq := workload.Generate(p, 9000)
	if err := f.Inject(seq); err != nil {
		t.Fatal(err)
	}
	sum := f.Run()
	resp := merged(f)
	if len(sum.PairStats) != 3 {
		t.Fatalf("got %d pair stats, want 3", len(sum.PairStats))
	}
	if resp.P50 <= 0 || resp.P50 > resp.P95 || resp.P95 > resp.P99 {
		t.Errorf("percentile ordering violated: P50=%v P95=%v P99=%v", resp.P50, resp.P95, resp.P99)
	}
	apps, routed, switches := 0, 0, 0
	for _, ps := range sum.PairStats {
		apps += ps.Apps
		routed += ps.Routed
		switches += ps.Switches
		if ps.Apps > 0 && ps.MeanRT <= 0 {
			t.Errorf("pair %d finished %d apps with mean RT %v", ps.Pair, ps.Apps, ps.MeanRT)
		}
		if ps.UtilLUT < 0 || ps.UtilLUT > 1 || ps.UtilFF < 0 || ps.UtilFF > 1 {
			t.Errorf("pair %d utilization out of range: LUT=%v FF=%v", ps.Pair, ps.UtilLUT, ps.UtilFF)
		}
	}
	if apps != resp.Apps {
		t.Errorf("pair apps sum to %d, summary has %d", apps, resp.Apps)
	}
	if routed != 30 {
		t.Errorf("pair routed sum to %d, want 30", routed)
	}
	if switches != sum.Switches {
		t.Errorf("pair switches sum to %d, summary has %d", switches, sum.Switches)
	}
}

// TestStageBitstreamsShared checks the process-wide pre-warm name
// lists: on a homogeneous and a heterogeneous platform each list holds
// the task partials of the base class (and, when heterogeneous, both
// modes of every bundle of the big class), concurrent callers agree,
// and a repeated request allocates nothing.
func TestStageBitstreamsShared(t *testing.T) {
	a := appmodel.NewApp(0, workload.IC, 4, 0)
	for _, name := range []string{fabric.ZCU216OnlyLittle, fabric.ZCU216BigLittle} {
		p := fabric.MustPlatform(name)
		var want []string
		if p.Heterogeneous() {
			for b := 0; b < len(a.Spec.Tasks)/3; b++ {
				for _, mode := range []string{"par", "ser"} {
					want = append(want, bitstream.BundleName(a.Spec.Name, b, mode, p.Largest().Name))
				}
			}
		}
		for _, task := range a.Spec.Tasks {
			want = append(want, bitstream.TaskName(a.Spec.Name, task.Name, p.Smallest().Name))
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := stageBitstreams(p, a); !slices.Equal(got, want) {
					t.Errorf("%s: stageBitstreams = %v, want %v", name, got, want)
				}
			}()
		}
		wg.Wait()
		if allocs := testing.AllocsPerRun(100, func() { stageBitstreams(p, a) }); allocs != 0 {
			t.Errorf("%s: repeated stageBitstreams allocates %.1f times, want 0", name, allocs)
		}
	}
}
