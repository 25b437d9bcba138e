package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"versaslot/internal/fabric"

	"versaslot/internal/sim"
)

func TestPercentileBasics(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(sorted, 0); got != 1 {
		t.Fatalf("P0=%v", got)
	}
	if got := Percentile(sorted, 100); got != 10 {
		t.Fatalf("P100=%v", got)
	}
	if got := Percentile(sorted, 50); got != 5.5 {
		t.Fatalf("P50=%v, want 5.5 (interpolated)", got)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile not NaN")
	}
	if Percentile([]float64{7}, 99) != 7 {
		t.Fatal("single sample")
	}
	if Percentile([]float64{1, 2}, 50) != 1.5 {
		t.Fatal("two-sample median")
	}
}

// Properties: percentile lies within [min,max] and is monotone in p.
func TestPercentileProperties(t *testing.T) {
	f := func(raw []uint16, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		sort.Float64s(vals)
		a := float64(p1 % 101)
		b := float64(p2 % 101)
		if a > b {
			a, b = b, a
		}
		va := Percentile(vals, a)
		vb := Percentile(vals, b)
		return va >= vals[0] && vb <= vals[len(vals)-1] && va <= vb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileOfDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	PercentileOf(vals, 50)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestCollectorSummary(t *testing.T) {
	c := NewCollector(fabric.ResVec{LUT: 100_000, FF: 200_000})
	for i := 1; i <= 100; i++ {
		c.RecordResponse(ResponseSample{
			AppID:    i,
			Response: sim.Duration(i) * sim.Millisecond,
			Finish:   sim.Time(i) * sim.Time(sim.Millisecond),
		})
	}
	s := c.Summarize()
	if s.Apps != 100 {
		t.Fatal("app count")
	}
	if s.MeanRT != sim.Duration(50500)*sim.Microsecond {
		t.Fatalf("mean %v", s.MeanRT)
	}
	if s.MinRT != sim.Millisecond || s.MaxRT != 100*sim.Millisecond {
		t.Fatalf("min/max %v/%v", s.MinRT, s.MaxRT)
	}
	if s.P95 < 90*sim.Millisecond || s.P95 > 100*sim.Millisecond {
		t.Fatalf("P95 %v", s.P95)
	}
	if s.P99 <= s.P95 {
		t.Fatal("P99 not above P95")
	}
}

func TestCollectorEmptySummary(t *testing.T) {
	c := NewCollector(fabric.ResVec{LUT: 1, FF: 1})
	s := c.Summarize()
	if s.Apps != 0 || s.MeanRT != 0 {
		t.Fatal("empty summary not zero")
	}
}

func TestUtilizationIntegral(t *testing.T) {
	c := NewCollector(fabric.ResVec{LUT: 100, FF: 200})
	// 50 LUT / 50 FF resident for 2s on a 100-LUT/200-FF board observed
	// over 4s: LUT = (50*2)/(100*4) = 0.25, FF = (50*2)/(200*4) = 0.125.
	c.AccumulateResident(fabric.ResVec{LUT: 50, FF: 50}, 2*sim.Second)
	c.RecordResponse(ResponseSample{Finish: sim.Time(4 * sim.Second)})
	lut, ff := c.Utilization()
	if lut != 0.25 {
		t.Fatalf("LUT util %v, want 0.25", lut)
	}
	if ff != 0.125 {
		t.Fatalf("FF util %v, want 0.125", ff)
	}
}

func TestBusyUtilizationSeparate(t *testing.T) {
	c := NewCollector(fabric.ResVec{LUT: 100, FF: 200})
	c.AccumulateResident(fabric.ResVec{LUT: 50, FF: 100}, 4*sim.Second)
	c.AccumulateBusy(fabric.ResVec{LUT: 50, FF: 100}, 1*sim.Second)
	c.RecordResponse(ResponseSample{Finish: sim.Time(4 * sim.Second)})
	rl, _ := c.Utilization()
	bl, _ := c.BusyUtilization()
	if bl >= rl {
		t.Fatalf("busy %v not below resident %v", bl, rl)
	}
}

func TestMeanResponse(t *testing.T) {
	if MeanResponse(nil) != 0 {
		t.Fatal("empty mean")
	}
	samples := []ResponseSample{
		{Response: 10 * sim.Millisecond},
		{Response: 30 * sim.Millisecond},
	}
	if MeanResponse(samples) != 20*sim.Millisecond {
		t.Fatal("mean")
	}
}

func TestBySpec(t *testing.T) {
	c := NewCollector(fabric.ResVec{LUT: 1, FF: 1})
	c.RecordResponse(ResponseSample{Spec: "IC", Response: 10 * sim.Millisecond})
	c.RecordResponse(ResponseSample{Spec: "IC", Response: 30 * sim.Millisecond})
	c.RecordResponse(ResponseSample{Spec: "AN", Response: 50 * sim.Millisecond})
	by := c.BySpec()
	if len(by) != 2 {
		t.Fatalf("specs %d", len(by))
	}
	// Sorted: AN before IC.
	if by[0].Spec != "AN" || by[1].Spec != "IC" {
		t.Fatalf("order %v", by)
	}
	if by[1].Count != 2 || by[1].MeanRT != 20*sim.Millisecond || by[1].MaxRT != 30*sim.Millisecond {
		t.Fatalf("IC breakdown %+v", by[1])
	}
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Fatalf("mean %v", m)
	}
	if s != 2 {
		t.Fatalf("std %v, want 2", s)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty MeanStd")
	}
	if m, s := MeanStd([]float64{7}); m != 7 || s != 0 {
		t.Fatal("single MeanStd")
	}
}

// TestSummarizeRepeatable: repeated summaries are identical (sorting
// into the scratch buffer must not disturb the recorded samples) and,
// after the first call warms the buffer, allocation-free.
func TestSummarizeRepeatable(t *testing.T) {
	c := NewCollector(fabric.ResVec{LUT: 100, FF: 100})
	for i := 0; i < 500; i++ {
		c.RecordResponse(ResponseSample{
			Spec:     "IC",
			Response: sim.Duration(500-i) * sim.Millisecond,
			Finish:   sim.Time(i+1) * sim.Time(sim.Millisecond),
		})
	}
	first := c.Summarize()
	second := c.Summarize()
	if first != second {
		t.Fatalf("summaries diverge:\n%+v\n%+v", first, second)
	}
	if first.P50 > first.P95 || first.P95 > first.P99 || first.P99 > first.MaxRT {
		t.Fatalf("tail percentiles out of order: %+v", first)
	}
	allocs := testing.AllocsPerRun(100, func() { _ = c.Summarize() })
	if allocs > 0 {
		t.Fatalf("warm Summarize allocates %.2f allocs/op, want 0", allocs)
	}
	// The recorded samples must be untouched by the in-place sort.
	if c.Responses[0].Response != 500*sim.Millisecond {
		t.Fatal("Summarize disturbed the response samples")
	}
}

// absorbBoard builds one board's collector for the merge tests: apps
// samples finishing evenly up to span seconds, lut LUTs resident for
// the whole span, and the fault axis over slots with the given
// downtime and retried app IDs.
func absorbBoard(stream bool, cap fabric.ResVec, apps int, span float64, lut int, slots int, down sim.Duration, retried ...int) *Collector {
	c := NewCollector(cap)
	if stream {
		c.EnableStreaming(StreamConfig{Window: sim.Second, MaxWindows: 64})
	}
	c.EnableFaults(slots)
	end := sim.Time(span * float64(sim.Second))
	for i := 1; i <= apps; i++ {
		c.RecordResponse(ResponseSample{AppID: i, Spec: "AN", Response: sim.Duration(i) * sim.Millisecond,
			Finish: end * sim.Time(i) / sim.Time(apps)})
	}
	c.AccumulateResident(fabric.ResVec{LUT: lut, FF: 2 * lut}, sim.Duration(end))
	c.AccumulateDowntime(down)
	for _, id := range retried {
		c.RecordFaultRetry(id)
	}
	c.PRLoads = uint64(apps)
	return c
}

// TestAbsorbMergeRules pins the multi-board merge rules in both
// metrics modes: utilization weighted by each board's completed apps
// (not summed resource-time over summed capacity), availability over
// the summed board slot-seconds, RetriedApps as the sum of per-board
// distinct counts, and the latest board finish as the end time. Reset
// must leave an aggregator that merges as if fresh.
func TestAbsorbMergeRules(t *testing.T) {
	for _, stream := range []bool{false, true} {
		// Board A: LUT 0.5 over 10 s, 3 apps, 4 slots down 4 s,
		// apps 1 and 2 retried. Board B: LUT 0.1 over 20 s, 1 app,
		// 2 slots down 2 s, app 1 retried (counted again).
		a := absorbBoard(stream, fabric.ResVec{LUT: 100, FF: 200}, 3, 10, 50, 4, 4*sim.Second, 1, 2)
		b := absorbBoard(stream, fabric.ResVec{LUT: 300, FF: 600}, 1, 20, 30, 2, 2*sim.Second, 1)
		var agg Collector
		agg.Absorb(a)
		agg.Absorb(b)
		s := agg.Summarize()
		if s.Apps != 4 || s.PRLoads != 4 {
			t.Errorf("stream=%v: apps %d PR loads %d, want 4 and 4", stream, s.Apps, s.PRLoads)
		}
		if want := (0.5*3 + 0.1*1) / 4; math.Abs(s.UtilLUT-want) > 1e-12 || math.Abs(s.UtilFF-want) > 1e-12 {
			t.Errorf("stream=%v: util LUT %v FF %v, want %v (app-weighted)", stream, s.UtilLUT, s.UtilFF, want)
		}
		if want := 1 - 6.0/(4*10+2*20); math.Abs(s.Availability-want) > 1e-12 || s.Downtime != 6*sim.Second {
			t.Errorf("stream=%v: availability %v downtime %v, want %v and 6s", stream, s.Availability, s.Downtime, want)
		}
		if s.RetriedApps != 3 {
			t.Errorf("stream=%v: retried apps %d, want 3 (per-board distinct counts summed)", stream, s.RetriedApps)
		}
		if agg.EndTime() != sim.Time(20*sim.Second) {
			t.Errorf("stream=%v: end time %v, want 20s", stream, agg.EndTime())
		}
		if got := len(agg.Windows()) > 0; got != stream {
			t.Errorf("stream=%v: merged collector reports windows=%v", stream, got)
		}
		agg.Reset()
		agg.Absorb(b)
		if s := agg.Summarize(); s.Apps != 1 || math.Abs(s.UtilLUT-0.1) > 1e-12 || s.RetriedApps != 1 {
			t.Errorf("stream=%v: after Reset apps %d util %v retried %d, want 1, 0.1, 1", stream, s.Apps, s.UtilLUT, s.RetriedApps)
		}
	}
}

// TestReserve checks that an empty exact-mode collector reserves room
// for the samples a run will record, so recording them does not regrow
// Responses, and that a collector with samples or in stream mode is
// left alone.
func TestReserve(t *testing.T) {
	c := NewCollector(fabric.ResVec{LUT: 100, FF: 200})
	c.Reserve(20)
	if len(c.Responses) != 0 || cap(c.Responses) != 20 {
		t.Fatalf("exact mode: len %d cap %d, want 0 and 20", len(c.Responses), cap(c.Responses))
	}
	allocs := testing.AllocsPerRun(1, func() {
		c.Responses = c.Responses[:0]
		for i := 0; i < 20; i++ {
			c.RecordResponse(ResponseSample{AppID: i, Finish: sim.Time(i)})
		}
	})
	if allocs != 0 {
		t.Fatalf("recording the reserved samples allocated %.0f times", allocs)
	}
	c.Reserve(40)
	if cap(c.Responses) != 20 {
		t.Fatal("Reserve regrew a collector that already holds samples")
	}
	s := NewCollector(fabric.ResVec{LUT: 100, FF: 200})
	s.EnableStreaming(StreamConfig{})
	s.Reserve(20)
	if s.Responses != nil {
		t.Fatal("stream mode reserved samples it never keeps")
	}
}
