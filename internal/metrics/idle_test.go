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

// TestAbsorbIdleMatchesNeverRunEngine checks the stand-in a switching
// pair merges for a spare it never built: absorbing it must equal
// absorbing the collector of an engine built on the same platform that
// never ran, in exact and stream mode, whether the idle board is
// merged alone, first (the aggregator has no mode yet), between or
// after boards that ran.
func TestAbsorbIdleMatchesNeverRunEngine(t *testing.T) {
	p := fabric.MustPlatform(fabric.ZCU216BigLittle)
	for _, stream := range []*metrics.StreamConfig{nil, {Window: sim.Second, MaxWindows: 16}} {
		e := sched.NewEngine(sim.NewKernel(1), sched.DefaultParams(), fabric.NewBoard(1, p),
			hypervisor.DualCore, bitstream.RepoFor(p))
		if stream != nil {
			e.Col.EnableStreaming(*stream)
		}
		for _, idleAt := range []int{-1, 0, 1, 2} {
			var viaEngine, viaStandIn metrics.Collector
			like := ranBoard(stream)
			ran := []*metrics.Collector{ranBoard(stream), ranBoard(stream)}
			if idleAt < 0 {
				ran, idleAt = nil, 0
			}
			for i := 0; i <= len(ran); i++ {
				if i == idleAt {
					viaEngine.Absorb(e.Col)
					viaStandIn.AbsorbIdle(p.SlotCapacity(), like)
				}
				if i < len(ran) {
					viaEngine.Absorb(ran[i])
					viaStandIn.Absorb(ran[i])
				}
			}
			got, want := report(&viaStandIn), report(&viaEngine)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("stream=%v idle board at %d: stand-in merge\n%+v\nwant never-run engine merge\n%+v",
					stream != nil, idleAt, got, want)
			}
		}
	}
}
