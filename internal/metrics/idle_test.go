package metrics_test

import (
	"reflect"
	"testing"

	"versaslot/internal/bitstream"
	"versaslot/internal/fabric"
	"versaslot/internal/hypervisor"
	"versaslot/internal/metrics"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
)

// merged is everything an aggregator reports after a merge.
type merged struct {
	Summary   metrics.Summary
	BySpec    []metrics.SpecBreakdown
	Windows   []metrics.WindowStat
	End       sim.Time
	FaultDown sim.Duration
	FaultSpan float64
	Events    uint64
	Failed    uint64
	Retried   int
	FaultsOn  bool
	// BusyLUT/BusyFF read the summed capacities, and Footprint the
	// stream state, so an idle board's contribution shows.
	BusyLUT, BusyFF float64
	Footprint       int
}

// report reads everything an aggregator reports after a merge, then
// records one more response and reads its windows again: a streaming
// aggregator opens a window for it and an exact one reports none, so
// the metrics mode the merge left behind shows too.
func report(c *metrics.Collector) [2]merged {
	return [2]merged{read(c), probe(c)}
}

func probe(c *metrics.Collector) merged {
	c.RecordResponse(metrics.ResponseSample{AppID: 99, Spec: "LN", Batch: 1,
		Response: 700 * sim.Millisecond, Finish: 9 * sim.Time(sim.Second)})
	return read(c)
}

func read(c *metrics.Collector) merged {
	m := merged{Summary: c.Summarize(), BySpec: c.BySpec(), Windows: c.Windows(), End: c.EndTime(),
		Footprint: c.StreamFootprint()}
	m.BusyLUT, m.BusyFF = c.BusyUtilization()
	m.FaultDown, m.FaultSpan, m.Events, m.Failed, m.Retried, m.FaultsOn = c.FaultStats()
	return m
}

// ranBoard is a board collector that recorded a few finished apps, a
// resident interval and some downtime.
func ranBoard(stream *metrics.StreamConfig) *metrics.Collector {
	c := metrics.NewCollector(fabric.ResVec{LUT: 400, FF: 800})
	if stream != nil {
		c.EnableStreaming(*stream)
	}
	c.EnableFaults(4)
	for i := 1; i <= 5; i++ {
		c.RecordResponse(metrics.ResponseSample{AppID: i, Spec: "AN", Batch: 2,
			Response: sim.Duration(i) * 300 * sim.Millisecond, Finish: sim.Time(i) * sim.Time(sim.Second)})
	}
	c.AccumulateResident(fabric.ResVec{LUT: 100, FF: 200}, 5*sim.Second)
	c.AccumulateBusy(fabric.ResVec{LUT: 50, FF: 100}, 3*sim.Second)
	c.AccumulateDowntime(sim.Second)
	c.RecordFaultRetry(3)
	return c
}

// TestAbsorbIdleMatchesNeverRunEngine checks the stand-ins a switching
// pair merges for boards it never built: absorbing them must equal
// absorbing the collectors of engines built on the same platforms that
// never ran, in exact and stream mode, whether the idle boards are
// merged alone, first (the aggregator has no mode yet), between or
// after boards that ran. An unbuilt spare takes its mode from the
// pair's board that ran; a pair with neither board built merges both
// stand-ins in the mode of a never-run probe board, as a farm asks its
// build hook.
func TestAbsorbIdleMatchesNeverRunEngine(t *testing.T) {
	base, boost := fabric.MustPlatform(fabric.ZCU216OnlyLittle), fabric.MustPlatform(fabric.ZCU216BigLittle)
	for _, stream := range []*metrics.StreamConfig{nil, {Window: sim.Second, MaxWindows: 16}} {
		neverRun := func(id int, p *fabric.Platform) *metrics.Collector {
			e := sched.NewEngine(sim.NewKernel(1), sched.DefaultParams(), fabric.NewBoard(id, p),
				hypervisor.DualCore, bitstream.RepoFor(p))
			if stream != nil {
				e.Col.EnableStreaming(*stream)
			}
			return e.Col
		}
		idleBase, idleBoost := neverRun(0, base), neverRun(1, boost)
		for _, unbuiltPair := range []bool{false, true} {
			for _, idleAt := range []int{-1, 0, 1, 2} {
				var viaEngine, viaStandIn metrics.Collector
				like := ranBoard(stream)
				if unbuiltPair {
					like = neverRun(-1, base)
				}
				ran := []*metrics.Collector{ranBoard(stream), ranBoard(stream)}
				if idleAt < 0 {
					ran, idleAt = nil, 0
				}
				for i := 0; i <= len(ran); i++ {
					if i == idleAt {
						if unbuiltPair {
							viaEngine.Absorb(idleBase)
							viaStandIn.AbsorbIdle(base.SlotCapacity(), like)
						}
						viaEngine.Absorb(idleBoost)
						viaStandIn.AbsorbIdle(boost.SlotCapacity(), like)
					}
					if i < len(ran) {
						viaEngine.Absorb(ran[i])
						viaStandIn.Absorb(ran[i])
					}
				}
				got, want := report(&viaStandIn), report(&viaEngine)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("stream=%v unbuilt pair=%v idle boards at %d: stand-in merge\n%+v\nwant never-run engine merge\n%+v",
						stream != nil, unbuiltPair, idleAt, got, want)
				}
			}
		}
	}
}

// TestAbsorbIdleAllocs checks that merging an idle board into a
// streaming aggregator allocates nothing: the stand-in adds no stream
// state of its own, so a fleet of idle boards merges for free.
func TestAbsorbIdleAllocs(t *testing.T) {
	like := ranBoard(&metrics.StreamConfig{Window: sim.Second, MaxWindows: 16})
	var agg metrics.Collector
	agg.Absorb(like)
	cap := fabric.MustPlatform(fabric.ZCU216BigLittle).SlotCapacity()
	if allocs := testing.AllocsPerRun(100, func() { agg.AbsorbIdle(cap, like) }); allocs != 0 {
		t.Errorf("merging an idle board into a streaming aggregator allocates %.0f times, want 0", allocs)
	}
}
