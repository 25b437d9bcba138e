package sched

import (
	"sync"
	"testing"

	"versaslot/internal/appmodel"
	"versaslot/internal/bitstream"
	"versaslot/internal/bundle"
	"versaslot/internal/fabric"
	"versaslot/internal/pipeline"
	"versaslot/internal/sim"
)

// directSize sizes the plan installed on a the way the policies did
// before sizing was cached: from the stages' own item times.
func directSize(ev *pipeline.Eval, a *appmodel.App, load sim.Duration, maxSlots int) (opt, maxUse int) {
	p := pipeline.Plan{Batch: a.Batch, LoadTime: load}
	for i := range a.Stages {
		st := &a.Stages[i]
		p.StageTimes = append(p.StageTimes, st.SteadyItemTime())
		p.FirstItemExtra = append(p.FirstItemExtra, st.ItemTime(0)-st.SteadyItemTime())
	}
	return p.SizeIn(ev, maxSlots)
}

// catalogLoads returns the PCAP load time of a class's partial
// bitstream at two bandwidths: the default and a quarter of it.
func catalogLoads(class fabric.SlotClass) []sim.Duration {
	b := &bitstream.Bitstream{Bytes: bitstream.DefaultSizeModel().ClassBytes(class)}
	p := DefaultParams()
	return []sim.Duration{
		bitstream.LoadTime(b, p.PCAPBandwidth, p.PCAPOverhead),
		bitstream.LoadTime(b, p.PCAPBandwidth/4, p.PCAPOverhead),
	}
}

// TestSizePlanMatchesDirect checks the cached sizing against a direct
// SizeIn of the installed plan, for every catalog spec's task plan and
// (where it bundles) 3-in-1 plan, every batch from 1 to 40, every slot
// bound from 1 to 8 and two PCAP bandwidths. Each key is looked up
// twice, so both the sweep and the cached answer are checked.
func TestSizePlanMatchesDirect(t *testing.T) {
	var ev pipeline.Eval
	little, big := fabric.LittleClass, fabric.BigClass
	for _, spec := range appmodel.Suite() {
		for batch := 1; batch <= 40; batch++ {
			a := appmodel.NewApp(1, spec, batch, 0)
			kinds := []bool{false}
			if bundle.CanBundle(spec) {
				kinds = append(kinds, true)
			}
			for _, bundled := range kinds {
				class := little
				if bundled {
					class = big
					bundle.Build(a, class.Name)
				} else {
					bundle.BuildTasks(a, class.Name)
				}
				for _, load := range catalogLoads(class) {
					for max := 1; max <= 8; max++ {
						key := sizeKey{spec: spec, class: class.Name, bundled: bundled, batch: batch, load: load, maxSlots: max}
						wantOpt, wantMax := directSize(&ev, a, load, max)
						for range 2 {
							if opt, maxUse := sizePlan(&ev, key); opt != wantOpt || maxUse != wantMax {
								t.Fatalf("%s bundled=%v batch %d load %v max %d: sizePlan = (%d, %d), SizeIn (%d, %d)",
									spec.Name, bundled, batch, load, max, opt, maxUse, wantOpt, wantMax)
							}
						}
					}
				}
			}
		}
	}
}

// TestPlanCachesConcurrent builds and sizes plans from 8 goroutines at
// once, as RunMany workers do, on spec copies no other test has
// cached. Every goroutine must see the same shared
// definitions and the sizes a sequential sweep computes; under -race it
// also checks that both caches are safely shared.
func TestPlanCachesConcurrent(t *testing.T) {
	var specs []*appmodel.AppSpec
	for _, s := range appmodel.Suite() {
		c := *s
		specs = append(specs, &c)
	}
	load := catalogLoads(fabric.LittleClass)[0]
	type result struct {
		tasks, bundles *appmodel.StageDef
		opt, maxUse    int
	}
	const workers = 8
	got := make([][]result, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ev pipeline.Eval
			for i, spec := range specs {
				batch := 5 + i
				a := appmodel.NewApp(i, spec, batch, 0)
				var r result
				bundle.BuildTasks(a, "Little")
				r.tasks = a.Stages[0].StageDef
				if bundle.CanBundle(spec) {
					bundle.Build(a, "Big")
					r.bundles = a.Stages[0].StageDef
				}
				r.opt, r.maxUse = sizePlan(&ev, sizeKey{spec: spec, class: "Little", batch: batch, load: load, maxSlots: 1 + (w+i)%8})
				got[w] = append(got[w], r)
			}
		}()
	}
	wg.Wait()
	var ev pipeline.Eval
	for w := range workers {
		for i, spec := range specs {
			r, want := got[w][i], got[0][i]
			if r.tasks != want.tasks || r.bundles != want.bundles {
				t.Fatalf("worker %d, %s: plan definitions not shared", w, spec.Name)
			}
			a := appmodel.NewApp(i, spec, 5+i, 0)
			bundle.BuildTasks(a, "Little")
			opt, maxUse := directSize(&ev, a, load, 1+(w+i)%8)
			if r.opt != opt || r.maxUse != maxUse {
				t.Fatalf("worker %d, %s: sized (%d, %d), want (%d, %d)", w, spec.Name, r.opt, r.maxUse, opt, maxUse)
			}
		}
	}
}
