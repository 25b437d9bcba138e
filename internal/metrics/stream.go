package metrics

import (
	"sort"

	"versaslot/internal/fabric"
	"versaslot/internal/sim"
)

// Default streaming geometry: ten simulated seconds per window, 64
// retained windows. Both are per-scenario tunables (the facade's
// metrics block); the defaults suit the catalog's second-to-minute
// horizons.
const (
	DefaultStreamWindow = 10 * sim.Second
	DefaultMaxWindows   = 64
)

// StreamConfig parameterizes stream mode: Window is the
// time-series bucket width, MaxWindows the ring size (retained
// history). Zero fields take the defaults above.
type StreamConfig struct {
	Window     sim.Duration
	MaxWindows int
}

// EnableStreaming switches the collector into stream mode: samples
// fold into a run-level Sketch plus a fixed ring of per-window
// sketches on arrival and are never retained, so memory stays O(1)
// in the number of applications over arbitrarily long horizons.
// Utilization integrals, PR counters and the fault axis accumulate
// exactly as in exact mode. Must be called before the first sample.
func (c *Collector) EnableStreaming(cfg StreamConfig) {
	if cfg.Window <= 0 {
		cfg.Window = DefaultStreamWindow
	}
	if cfg.MaxWindows <= 0 {
		cfg.MaxWindows = DefaultMaxWindows
	}
	st := &streamState{
		cfg:    cfg,
		global: NewSketch(GlobalSketchBits),
		spec:   make(map[string]*SpecBreakdown),
		ring:   make([]window, cfg.MaxWindows),
	}
	st.reset()
	c.stream = st
}

// window is one ring slot of the streaming time-series. Slots are
// recycled in place on rollover — Reset keeps the sketch's bucket
// storage — so steady-state ingest allocates nothing.
type window struct {
	index    int64 // absolute window number (Finish / Window); -1 = unused
	sketch   *Sketch
	qsum     float64
	lutInt   float64 // LUT-seconds resident inside this window
	ffInt    float64
	migrated uint64
	faults   uint64
	failed   uint64
}

func (w *window) reset(index int64) {
	w.index = index
	if w.sketch == nil {
		w.sketch = NewSketch(WindowSketchBits)
	} else {
		w.sketch.Reset()
	}
	w.qsum = 0
	w.lutInt = 0
	w.ffInt = 0
	w.migrated = 0
	w.faults = 0
	w.failed = 0
}

// streamState is stream mode's state: the run-level sketch, the
// window ring, and per-spec aggregates.
type streamState struct {
	cfg    StreamConfig
	global *Sketch
	qsum   float64
	// ring holds the MaxWindows most recent windows; hi is the highest
	// absolute window index materialized so far (-1 before the first
	// touch). Older windows are evicted by recycling their slot — their
	// samples stay in the run-level sketch, only the time-series entry
	// rolls off.
	ring []window
	hi   int64
	// spec accumulates per-application-type aggregates; MeanRT holds
	// the running response-time sum until BySpec divides a copy.
	spec map[string]*SpecBreakdown
}

// reset empties the state, keeping the sketches' bucket storage.
// Ring slots are marked unused; windowAt resets each on first touch.
func (st *streamState) reset() {
	st.global.Reset()
	st.qsum = 0
	st.hi = -1
	clear(st.spec)
	for i := range st.ring {
		st.ring[i].index = -1
	}
}

// observe folds one finished application into the sketch and its
// finish-time window. Warm-path cost: two sketch adds and a map
// lookup, zero allocations.
func (st *streamState) observe(s ResponseSample) {
	rt := int64(s.Response)
	st.global.Add(rt)
	st.qsum += float64(s.QueueDelay)
	b := st.spec[s.Spec]
	if b == nil {
		b = &SpecBreakdown{Spec: s.Spec}
		st.spec[s.Spec] = b
	}
	b.Count++
	b.MeanRT += s.Response
	if s.Response > b.MaxRT {
		b.MaxRT = s.Response
	}
	if w := st.windowAt(st.indexOf(s.Finish)); w != nil {
		w.sketch.Add(rt)
		w.qsum += float64(s.QueueDelay)
	}
}

func (st *streamState) indexOf(t sim.Time) int64 {
	if t < 0 {
		t = 0
	}
	return int64(t) / int64(st.cfg.Window)
}

// windowAt returns the ring slot for absolute window idx, advancing
// the ring when idx is ahead of the newest window. Returns nil when
// idx has already rolled off the retained range (the observation then
// contributes to run-level state only). Advancing over a gap longer
// than the ring touches at most len(ring) slots, so ingest stays
// O(1) amortized.
func (st *streamState) windowAt(idx int64) *window {
	n := int64(len(st.ring))
	if st.hi < 0 {
		st.hi = idx - 1
	}
	if idx > st.hi {
		start := st.hi + 1
		if idx-start >= n {
			start = idx - n + 1
		}
		for i := start; i <= idx; i++ {
			st.ring[i%n].reset(i)
		}
		st.hi = idx
	}
	if idx <= st.hi-n {
		return nil
	}
	slot := &st.ring[idx%n]
	if slot.index != idx {
		// The slot still holds a window that was skipped over during a
		// long gap; it is outside the retained range, so recycle it.
		slot.reset(idx)
	}
	return slot
}

// AccumulateResidentSpan adds a resident-circuit interval with its
// endpoints, so stream mode can attribute the LUT/FF-seconds to the
// windows the interval overlaps. The run-level integrals update
// exactly as AccumulateResident does; exact mode behaves identically.
func (c *Collector) AccumulateResidentSpan(res fabric.ResVec, from, to sim.Time) {
	c.AccumulateResident(res, to.Sub(from))
	if c.stream == nil || to <= from {
		return
	}
	st := c.stream
	w := sim.Time(st.cfg.Window)
	for t := from; t < to; {
		end := (t/w + 1) * w
		if end > to {
			end = to
		}
		if slot := st.windowAt(st.indexOf(t)); slot != nil {
			sec := end.Sub(t).Seconds()
			slot.lutInt += float64(res.LUT) * sec
			slot.ffInt += float64(res.FF) * sec
		}
		t = end
	}
}

// RecordFaultEventAt counts one injected failure and, in stream mode,
// attributes it to the window containing t.
func (c *Collector) RecordFaultEventAt(t sim.Time) {
	c.RecordFaultEvent()
	if st := c.stream; st != nil {
		if w := st.windowAt(st.indexOf(t)); w != nil {
			w.faults++
		}
	}
}

// RecordAppFailureAt counts one fault-induced crash-restart and, in
// stream mode, attributes it to the window containing t.
func (c *Collector) RecordAppFailureAt(t sim.Time) {
	c.RecordAppFailure()
	if st := c.stream; st != nil {
		if w := st.windowAt(st.indexOf(t)); w != nil {
			w.failed++
		}
	}
}

// RecordMigrationWindow attributes apps live-migrated at t to t's
// window. Stream-mode only; exact mode derives migration counts from
// the pair's Migration records as before.
func (c *Collector) RecordMigrationWindow(t sim.Time, apps int) {
	if st := c.stream; st != nil {
		if w := st.windowAt(st.indexOf(t)); w != nil {
			w.migrated += uint64(apps)
		}
	}
}

// WindowStat is one completed window of the streaming time-series.
type WindowStat struct {
	Index       int64        `json:"index"`
	Start       sim.Time     `json:"start"`
	End         sim.Time     `json:"end"`
	Apps        int          `json:"apps"`
	MeanRT      sim.Duration `json:"mean_rt"`
	P50         sim.Duration `json:"p50"`
	P99         sim.Duration `json:"p99"`
	MeanQueue   sim.Duration `json:"mean_queue"`
	UtilLUT     float64      `json:"util_lut"`
	UtilFF      float64      `json:"util_ff"`
	Migrated    uint64       `json:"migrated,omitempty"`
	FaultEvents uint64       `json:"fault_events,omitempty"`
	FailedApps  uint64       `json:"failed_apps,omitempty"`
}

// Windows returns the retained time-series, oldest window first — at
// most MaxWindows entries regardless of horizon length. Per-window
// P50/P99 carry the window sketch's 2^-5 relative value bound; the
// final (possibly partial) window's utilization denominator is
// clipped at the collector's end time.
func (c *Collector) Windows() []WindowStat {
	st := c.stream
	if st == nil || st.hi < 0 {
		return nil
	}
	n := int64(len(st.ring))
	lo := st.hi - n + 1
	if lo < 0 {
		lo = 0
	}
	w := sim.Time(st.cfg.Window)
	out := make([]WindowStat, 0, st.hi-lo+1)
	for i := lo; i <= st.hi; i++ {
		slot := &st.ring[i%n]
		if slot.index != i {
			continue
		}
		ws := WindowStat{
			Index: i,
			Start: sim.Time(i) * w,
			End:   sim.Time(i+1) * w,
		}
		if cnt := slot.sketch.Count(); cnt > 0 {
			ws.Apps = int(cnt)
			ws.MeanRT = sim.Duration(slot.sketch.Mean())
			ws.P50 = sim.Duration(slot.sketch.Quantile(50))
			ws.P99 = sim.Duration(slot.sketch.Quantile(99))
			ws.MeanQueue = sim.Duration(st.qsumOf(slot))
		}
		span := ws.End.Sub(ws.Start).Seconds()
		if c.end > ws.Start && c.end < ws.End {
			span = c.end.Sub(ws.Start).Seconds()
		}
		if span > 0 {
			if c.capLUT > 0 {
				ws.UtilLUT = slot.lutInt / (c.capLUT * span)
			}
			if c.capFF > 0 {
				ws.UtilFF = slot.ffInt / (c.capFF * span)
			}
		}
		ws.Migrated = slot.migrated
		ws.FaultEvents = slot.faults
		ws.FailedApps = slot.failed
		out = append(out, ws)
	}
	return out
}

func (st *streamState) qsumOf(w *window) float64 {
	return w.qsum / float64(w.sketch.Count())
}

// EndTime returns the latest finish instant observed: the run's
// makespan in both modes (for a merged collector, the latest board
// finish).
func (c *Collector) EndTime() sim.Time { return c.end }

// StreamFootprint reports stream mode's current bucket-storage
// footprint in bytes (run-level sketch plus all ring windows) — the
// flat number the long-horizon docs cite.
func (c *Collector) StreamFootprint() int {
	st := c.stream
	if st == nil {
		return 0
	}
	b := st.global.MemoryFootprint()
	for i := range st.ring {
		if st.ring[i].sketch != nil {
			b += st.ring[i].sketch.MemoryFootprint()
		}
	}
	return b
}

// Absorb folds one board's collector into c, the multi-board
// aggregator. An exact source appends its samples; a stream source
// merges its run-level sketch (bucket counts add, so the merge is
// exactly associative), its window ring by absolute window index and
// its per-spec aggregates, switching c to stream mode with the
// source's geometry on first use. Both kinds add the resource-time
// integrals and capacities, every counter and the fault axis, and
// record the board's utilization, app count and slot-seconds for the
// merge rules Summarize then reports (see Collector's merge state).
// Sources must be absorbed in a fixed order for deterministic output.
func (c *Collector) Absorb(src *Collector) {
	if src.stream != nil {
		if c.stream == nil {
			c.EnableStreaming(src.stream.cfg)
		}
		c.stream.absorb(src.stream)
	} else {
		c.Responses = append(c.Responses, src.Responses...)
	}
	apps := float64(src.apps())
	u := src.UtilizationAll()
	c.merged = true
	c.utilSum.LUT += u.LUT * apps
	c.utilSum.FF += u.FF * apps
	c.utilSum.DSP += u.DSP * apps
	c.utilSum.BRAM += u.BRAM * apps
	c.utilApps += apps

	c.lutResidentInt += src.lutResidentInt
	c.ffResidentInt += src.ffResidentInt
	c.dspResidentInt += src.dspResidentInt
	c.bramResidentInt += src.bramResidentInt
	c.lutBusyInt += src.lutBusyInt
	c.ffBusyInt += src.ffBusyInt
	c.capLUT += src.capLUT
	c.capFF += src.capFF
	c.capDSP += src.capDSP
	c.capBRAM += src.capBRAM
	if src.end > c.end {
		c.end = src.end
	}
	c.PRLoads += src.PRLoads
	c.PRBytes += src.PRBytes
	c.PRWait += src.PRWait
	c.PRBlocked += src.PRBlocked
	c.PRRetries += src.PRRetries
	c.Preemptions += src.Preemptions
	c.Migrations += src.Migrations
	c.MigratedApps += src.MigratedApps
	c.MigrationBytes += src.MigrationBytes
	c.MigrationTime += src.MigrationTime
	if src.faultsOn {
		c.faultsOn = true
		c.slotSec += src.slotSeconds()
		c.downTotal += src.downTotal
		c.FaultEvents += src.FaultEvents
		c.FailedApps += src.FailedApps
		c.retried += src.retriedApps()
	}
}

// AbsorbIdle folds in a board that never ran, over slot capacity cap:
// exactly what Absorb adds for a fresh collector in the metrics mode of
// like (streaming with like's geometry, or exact); a switching pair
// merges a board it never built this way. A fresh stream state adds
// nothing but its mode (an empty sketch, no windows), so c takes like's
// geometry directly, and the rest is a stack stand-in put through
// Absorb itself, so the two cannot drift. Idle boards thus merge
// without building a stream state each.
func (c *Collector) AbsorbIdle(cap fabric.ResVec, like *Collector) {
	if like.stream != nil && c.stream == nil {
		c.EnableStreaming(like.stream.cfg)
	}
	var idle Collector
	idle.Init(cap)
	c.Absorb(&idle)
}

// Reset empties c for reuse as a fresh aggregator (capacities and the
// stream geometry included), keeping its sample, percentile and
// sketch buffers so a farm can merge pair after pair through one
// collector without allocating per pair.
func (c *Collector) Reset() {
	st := c.stream
	*c = Collector{Responses: c.Responses[:0], scratch: c.scratch[:0]}
	if st != nil {
		st.reset()
		c.stream = st
	}
}

// absorb merges another stream state into st: the run-level sketch,
// the queue-delay sum, per-spec aggregates and every retained window.
func (st *streamState) absorb(ss *streamState) {
	st.global.Merge(ss.global)
	st.qsum += ss.qsum
	for name, b := range ss.spec {
		d := st.spec[name]
		if d == nil {
			d = &SpecBreakdown{Spec: name}
			st.spec[name] = d
		}
		d.Count += b.Count
		d.MeanRT += b.MeanRT
		if b.MaxRT > d.MaxRT {
			d.MaxRT = b.MaxRT
		}
	}
	if ss.hi < 0 {
		return
	}
	n := int64(len(ss.ring))
	lo := max(ss.hi-n+1, 0)
	for i := lo; i <= ss.hi; i++ {
		slot := &ss.ring[i%n]
		if slot.index != i {
			continue
		}
		dst := st.windowAt(i)
		if dst == nil {
			continue
		}
		dst.sketch.Merge(slot.sketch)
		dst.qsum += slot.qsum
		dst.lutInt += slot.lutInt
		dst.ffInt += slot.ffInt
		dst.migrated += slot.migrated
		dst.faults += slot.faults
		dst.failed += slot.failed
	}
}

// streamSummary is Summarize's stream-mode branch for a non-empty
// run: the response-time statistics come from the run-level sketch.
func (c *Collector) streamSummary(s Summary) Summary {
	g := c.stream.global
	s.MeanRT = sim.Duration(g.Mean())
	s.P50 = sim.Duration(g.Quantile(50))
	s.P95 = sim.Duration(g.Quantile(95))
	s.P99 = sim.Duration(g.Quantile(99))
	s.MinRT = sim.Duration(g.Min())
	s.MaxRT = sim.Duration(g.Max())
	s.MeanQueue = sim.Duration(c.stream.qsum / float64(g.Count()))
	return s
}

// streamBySpec is BySpec's stream-mode branch: aggregates were folded
// on arrival; report a sorted copy (sums divided into means) so
// repeated calls stay idempotent.
func (c *Collector) streamBySpec() []SpecBreakdown {
	st := c.stream
	names := make([]string, 0, len(st.spec))
	for n := range st.spec {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]SpecBreakdown, 0, len(names))
	for _, n := range names {
		b := *st.spec[n]
		b.MeanRT /= sim.Duration(b.Count)
		out = append(out, b)
	}
	return out
}
