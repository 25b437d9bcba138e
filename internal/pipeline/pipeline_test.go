package pipeline

import (
	"testing"
	"testing/quick"

	"versaslot/internal/appmodel"
	"versaslot/internal/bundle"
	"versaslot/internal/sim"
)

func ms(v int) sim.Duration { return sim.Duration(v) * sim.Millisecond }

func TestMakespanSingleStage(t *testing.T) {
	p := Plan{StageTimes: []sim.Duration{ms(10)}, Batch: 5, LoadTime: ms(3)}
	// load + 5 items.
	if got := p.Makespan(1); got != ms(53) {
		t.Fatalf("makespan %v, want 53ms", got)
	}
}

func TestMakespanPipelineFormula(t *testing.T) {
	// Uniform two-stage pipeline with enough slots: load + (B+k-1)*T.
	p := Plan{StageTimes: []sim.Duration{ms(10), ms(10)}, Batch: 4, LoadTime: 0}
	if got := p.Makespan(2); got != ms(50) {
		t.Fatalf("makespan %v, want (4+1)*10=50ms", got)
	}
}

func TestMakespanBottleneckDominates(t *testing.T) {
	p := Plan{StageTimes: []sim.Duration{ms(5), ms(20), ms(5)}, Batch: 10, LoadTime: 0}
	got := p.Makespan(3)
	// Bottleneck: first item takes 5+20+5, then 9 more at 20.
	want := ms(30 + 9*20)
	if got != want {
		t.Fatalf("makespan %v, want %v", got, want)
	}
}

func TestMakespanSlotReuse(t *testing.T) {
	// Two equal stages on one slot: the slot runs stage 0's whole
	// batch, reloads, then stage 1's batch.
	p := Plan{StageTimes: []sim.Duration{ms(10), ms(10)}, Batch: 3, LoadTime: ms(2)}
	got := p.Makespan(1)
	want := ms(2 + 30 + 2 + 30)
	if got != want {
		t.Fatalf("1-slot makespan %v, want %v", got, want)
	}
}

func TestMakespanFirstItemExtra(t *testing.T) {
	p := Plan{
		StageTimes:     []sim.Duration{ms(10)},
		FirstItemExtra: []sim.Duration{ms(20)},
		Batch:          3,
		LoadTime:       0,
	}
	if got := p.Makespan(1); got != ms(50) {
		t.Fatalf("with fill: %v, want 20+10*3=50ms", got)
	}
}

func TestMakespanEdgeCases(t *testing.T) {
	if (Plan{}).Makespan(1) != 0 {
		t.Fatal("empty plan")
	}
	p := Plan{StageTimes: []sim.Duration{ms(10)}, Batch: 0}
	if p.Makespan(1) != 0 {
		t.Fatal("zero batch")
	}
	// More slots than stages clamps.
	p2 := Plan{StageTimes: []sim.Duration{ms(10)}, Batch: 2}
	if p2.Makespan(5) != p2.Makespan(1) {
		t.Fatal("slot clamp")
	}
}

func TestMakespanPanicsOnZeroSlots(t *testing.T) {
	p := Plan{StageTimes: []sim.Duration{ms(10)}, Batch: 1}
	defer func() {
		if recover() == nil {
			t.Error("zero slots did not panic")
		}
	}()
	p.Makespan(0)
}

// Property: makespan never increases with more slots. Every stage loads
// exactly once regardless of slot count, so extra slots only remove
// wave serialization.
func TestMakespanMonotone(t *testing.T) {
	f := func(raw []uint8, batch uint8, load uint8) bool {
		if len(raw) == 0 || len(raw) > 9 {
			return true
		}
		times := make([]sim.Duration, len(raw))
		for i, v := range raw {
			times[i] = sim.Duration(v%60+1) * sim.Millisecond
		}
		p := Plan{
			StageTimes: times,
			Batch:      int(batch%29) + 1,
			LoadTime:   sim.Duration(load%40) * sim.Millisecond,
		}
		prev := p.Makespan(1)
		for s := 2; s <= len(times); s++ {
			cur := p.Makespan(s)
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalSlotsKnee(t *testing.T) {
	// One dominant bottleneck stage plus five cheap ones, batch 20:
	// the cheap stages can time-share a single slot in the bottleneck's
	// shadow, so the knee sits far below the task count — the paper's
	// "usually lower than the task count".
	p := Plan{
		StageTimes: []sim.Duration{ms(100), ms(4), ms(4), ms(4), ms(4), ms(4)},
		Batch:      20,
		LoadTime:   ms(2),
	}
	o := p.OptimalSlots(8)
	if o < 1 || o > 3 {
		t.Fatalf("optimal slots %d, expected the knee in [1,3]", o)
	}
}

func TestOptimalSlotsUniformNeedsAll(t *testing.T) {
	// Uniform stages have no shadow to hide reuse in: any reuse wave
	// appends a serial batch, so the optimum is the full task count.
	p := Plan{
		StageTimes: []sim.Duration{ms(10), ms(10), ms(10), ms(10), ms(10), ms(10)},
		Batch:      20,
		LoadTime:   ms(2),
	}
	if o := p.OptimalSlots(8); o != 6 {
		t.Fatalf("uniform pipeline optimal %d, want 6", o)
	}
}

func TestOptimalSlotsWithinTolerance(t *testing.T) {
	f := func(raw []uint8, batch uint8) bool {
		if len(raw) == 0 || len(raw) > 9 {
			return true
		}
		times := make([]sim.Duration, len(raw))
		for i, v := range raw {
			times[i] = sim.Duration(v%60+1) * sim.Millisecond
		}
		p := Plan{StageTimes: times, Batch: int(batch%29) + 1, LoadTime: ms(4)}
		max := len(times)
		o := p.OptimalSlots(max)
		if o < 1 || o > max {
			return false
		}
		best := p.Makespan(max)
		limit := sim.Duration(float64(best) * kneeTolerance)
		return p.Makespan(o) <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxUsefulSlots(t *testing.T) {
	// A pipeline whose bottleneck dominates: beyond a point extra
	// slots do nothing.
	p := Plan{
		StageTimes: []sim.Duration{ms(50), ms(5), ms(5), ms(5)},
		Batch:      30,
		LoadTime:   0,
	}
	mu := p.MaxUsefulSlots(4)
	if got := p.Makespan(mu); got != p.Makespan(4) {
		t.Fatalf("MaxUsefulSlots(%d) does not reach best makespan", mu)
	}
	// Every count below mu must be strictly worse.
	for s := 1; s < mu; s++ {
		if p.Makespan(s) <= p.Makespan(4) {
			t.Fatalf("slot count %d already reaches the best makespan; mu=%d not minimal", s, mu)
		}
	}
}

func TestOptimalLeqMaxUseful(t *testing.T) {
	f := func(raw []uint8, batch uint8) bool {
		if len(raw) == 0 || len(raw) > 9 {
			return true
		}
		times := make([]sim.Duration, len(raw))
		for i, v := range raw {
			times[i] = sim.Duration(v%60+1) * sim.Millisecond
		}
		p := Plan{StageTimes: times, Batch: int(batch%29) + 1, LoadTime: ms(4)}
		return p.OptimalSlots(8) <= p.MaxUsefulSlots(8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroStagePlans(t *testing.T) {
	p := Plan{}
	if p.OptimalSlots(4) != 0 || p.MaxUsefulSlots(4) != 0 {
		t.Fatal("empty plan slot counts")
	}
}

// refSizes is the two independent searches SizeIn replaces, kept here
// as the reference: the knee search upward from one slot, and the
// best-makespan search downward from maxSlots.
func refSizes(p Plan, maxSlots int) (opt, maxUse int) {
	k := len(p.StageTimes)
	if k == 0 {
		return 0, 0
	}
	if maxSlots > k {
		maxSlots = k
	}
	if maxSlots < 1 {
		maxSlots = 1
	}
	best := p.Makespan(maxSlots)
	limit := sim.Duration(float64(best) * kneeTolerance)
	opt = maxSlots
	for s := 1; s < maxSlots; s++ {
		if p.Makespan(s) <= limit {
			opt = s
			break
		}
	}
	maxUse = maxSlots
	for s := maxSlots - 1; s >= 1; s-- {
		if p.Makespan(s) <= best {
			maxUse = s
		}
	}
	return opt, maxUse
}

// TestSizeInMatchesSearches checks SizeIn, and the OptimalSlotsIn and
// MaxUsefulSlotsIn wrappers over it, against the two separate searches
// for every suite application's task plan and bundle plan, every batch
// from 5 to 30 and every slot bound from 1 to 8.
func TestSizeInMatchesSearches(t *testing.T) {
	var ev Eval
	for _, spec := range appmodel.Suite() {
		times := make([]sim.Duration, len(spec.Tasks))
		for i, task := range spec.Tasks {
			times[i] = task.Time
		}
		for batch := 5; batch <= 30; batch++ {
			plans := map[string]Plan{"tasks": {StageTimes: times, Batch: batch, LoadTime: ms(4)}}
			if modes := bundle.Modes(spec, batch); len(modes) > 0 {
				bt := make([]sim.Duration, len(modes))
				extra := make([]sim.Duration, len(modes))
				for b, m := range modes {
					first, rest := appmodel.BundleTiming(spec, bundle.Size, b, m)
					bt[b], extra[b] = rest, first-rest
				}
				plans["bundles"] = Plan{StageTimes: bt, FirstItemExtra: extra, Batch: batch, LoadTime: ms(9)}
			}
			for kind, p := range plans {
				for max := 1; max <= 8; max++ {
					wantOpt, wantMax := refSizes(p, max)
					opt, maxUse := p.SizeIn(&ev, max)
					if opt != wantOpt || maxUse != wantMax {
						t.Fatalf("%s %s batch %d max %d: SizeIn = (%d, %d), searches (%d, %d)",
							spec.Name, kind, batch, max, opt, maxUse, wantOpt, wantMax)
					}
					if p.OptimalSlotsIn(&ev, max) != wantOpt || p.MaxUsefulSlotsIn(&ev, max) != wantMax {
						t.Fatalf("%s %s batch %d max %d: wrappers disagree with the searches", spec.Name, kind, batch, max)
					}
				}
			}
		}
	}
}
