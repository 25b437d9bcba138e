package metrics

import (
	"math"
	"slices"
	"sort"
	"strings"

	"versaslot/internal/fabric"
	"versaslot/internal/sim"
)

// ResponseSample is one finished application.
type ResponseSample struct {
	AppID    int
	Spec     string
	Batch    int
	Arrival  sim.Time
	Finish   sim.Time
	Response sim.Duration
	// QueueDelay is the share of Response spent before the first item
	// executed (allocation wait + initial configuration).
	QueueDelay sim.Duration
}

// Collector accumulates one simulation run's measurements.
type Collector struct {
	Responses []ResponseSample

	// PR accounting.
	PRLoads   uint64
	PRWait    sim.Duration
	PRBlocked uint64 // loads that queued behind another PR
	PRRetries uint64 // loads re-streamed after an injected PR fault

	// Utilization time-integrals: sum over intervals of resident
	// (resource in use) * dt. LUT/FF are the paper's reported pair;
	// DSP/BRAM make DSP- and BRAM-bound circuits visible on
	// heterogeneous platforms.
	lutResidentInt  float64 // LUT-seconds resident
	ffResidentInt   float64
	dspResidentInt  float64
	bramResidentInt float64
	capLUT          float64 // board slot capacities (denominators)
	capFF           float64
	capDSP          float64
	capBRAM         float64
	start, end      sim.Time

	// Preemptions counts stage evictions before batch completion.
	Preemptions uint64

	// Fault-injection accounting. faultsOn latches when the chaos axis
	// attaches to the board, so fault-free runs keep reporting (and
	// marshalling) exactly what they always did.
	faultsOn   bool
	faultSlots int
	// FaultEvents counts injected slot/board failures; FailedApps
	// counts application crash-restarts they caused.
	FaultEvents uint64
	FailedApps  uint64
	// faultRetried tracks which applications hit at least one
	// fault-injected reconfiguration retry.
	faultRetried map[int]struct{}
	// downTotal integrates slot-downtime (summed across slots).
	downTotal sim.Duration

	// scratch is the reusable percentile buffer: Summarize sorts
	// response times into it instead of allocating a copy per call
	// (farm summaries recompute per pair and per board).
	scratch []float64

	// stream, when non-nil, is the bounded-memory sketch state
	// installed by EnableStreaming; nil is exact mode, where every
	// sample is retained in Responses.
	stream *streamState

	// Merge state, accumulated by Absorb. A merged collector reports
	// the multi-board rules instead of its own integrals: utilization
	// is utilSum / utilApps (each board's utilization weighted by its
	// completed apps), availability divides downtime by slotSec (the
	// summed board slot-seconds), and RetriedApps adds retried (the
	// per-board distinct counts).
	merged   bool
	utilSum  fabric.UtilRatios
	utilApps float64
	slotSec  float64
	retried  int
}

// NewCollector returns an empty collector; cap is the board's total
// slot capacity (utilization denominator).
func NewCollector(cap fabric.ResVec) *Collector {
	c := new(Collector)
	c.Init(cap)
	return c
}

// Init makes a zero Collector, in place, an empty collector over
// capacity cap.
func (c *Collector) Init(cap fabric.ResVec) {
	c.capLUT, c.capFF = float64(cap.LUT), float64(cap.FF)
	c.capDSP, c.capBRAM = float64(cap.DSP), float64(cap.BRAM)
}

// EnableFaults switches the collector into fault-accounting mode:
// slots is the board's slot count (the availability denominator).
// Summarize reports the fault block only after this is called.
func (c *Collector) EnableFaults(slots int) {
	c.faultsOn = true
	c.faultSlots = slots
	if c.faultRetried == nil {
		c.faultRetried = make(map[int]struct{})
	}
}

// RecordFaultEvent counts one injected failure (a slot or board dying).
func (c *Collector) RecordFaultEvent() { c.FaultEvents++ }

// RecordAppFailure counts one fault-induced application crash-restart.
func (c *Collector) RecordAppFailure() { c.FailedApps++ }

// RecordFaultRetry notes that appID's reconfiguration hit one
// fault-injected retry; RetriedApps reports distinct applications.
func (c *Collector) RecordFaultRetry(appID int) {
	if c.faultRetried == nil {
		c.faultRetried = make(map[int]struct{})
	}
	c.faultRetried[appID] = struct{}{}
}

// AccumulateDowntime adds one slot's out-of-service interval.
func (c *Collector) AccumulateDowntime(dt sim.Duration) { c.downTotal += dt }

// FaultStats exposes the raw fault accounting: total slot-downtime,
// the slot-seconds denominator, failure and crash counts, distinct
// retried apps, and whether the fault axis was enabled at all.
func (c *Collector) FaultStats() (down sim.Duration, slotSpanSec float64, events, failed uint64, retried int, on bool) {
	if !c.faultsOn {
		return 0, 0, 0, 0, 0, false
	}
	return c.downTotal, c.slotSeconds(), c.FaultEvents, c.FailedApps, c.retriedApps(), true
}

// slotSeconds is the availability denominator: the board's slot count
// times its span, or the sum of its boards' once merged.
func (c *Collector) slotSeconds() float64 {
	if c.merged {
		return c.slotSec
	}
	span := c.end.Sub(c.start).Seconds()
	if span < 0 {
		span = 0
	}
	return float64(c.faultSlots) * span
}

// retriedApps counts applications that hit a fault-injected retry:
// distinct per board, summed across merged boards (an app retried on
// both boards of a pair counts on each).
func (c *Collector) retriedApps() int { return c.retried + len(c.faultRetried) }

// availability is 1 minus the downtime fraction of the run's
// slot-seconds, floored at 0 (lingering recovery events can push
// downtime past the last app's finish instant).
func (c *Collector) availability() float64 {
	slotSec := c.slotSeconds()
	if slotSec <= 0 {
		return 1
	}
	return max(0, 1-c.downTotal.Seconds()/slotSec)
}

// RecordResponse adds one finished application: retained in
// Responses in exact mode, folded into the sketches in stream mode.
func (c *Collector) RecordResponse(s ResponseSample) {
	if s.Finish > c.end {
		c.end = s.Finish
	}
	if c.stream != nil {
		c.stream.observe(s)
		return
	}
	c.Responses = append(c.Responses, s)
}

// Reserve makes room for n response samples in an exact-mode collector
// that holds none yet, so a run that knows its app count up front
// records every sample without regrowing Responses. Stream mode keeps
// no samples and ignores it.
func (c *Collector) Reserve(n int) {
	if c.stream == nil && len(c.Responses) == 0 && cap(c.Responses) < n {
		c.Responses = make([]ResponseSample, 0, n)
	}
}

// apps counts the finished applications recorded (or absorbed).
func (c *Collector) apps() int {
	if c.stream != nil {
		return int(c.stream.global.Count())
	}
	return len(c.Responses)
}

// AccumulateResident adds a resident-circuit interval: res held for dt.
func (c *Collector) AccumulateResident(res fabric.ResVec, dt sim.Duration) {
	sec := dt.Seconds()
	c.lutResidentInt += float64(res.LUT) * sec
	c.ffResidentInt += float64(res.FF) * sec
	c.dspResidentInt += float64(res.DSP) * sec
	c.bramResidentInt += float64(res.BRAM) * sec
}

// Utilization returns the time-averaged LUT and FF utilization of the
// board's slot area over [start, end] for resident circuits.
func (c *Collector) Utilization() (lut, ff float64) {
	u := c.UtilizationAll()
	return u.LUT, u.FF
}

// UtilizationAll returns the time-averaged utilization across every
// tracked resource; DSP/BRAM ratios are zero when the platform declares
// no such capacity. A merged collector reports its boards'
// utilizations weighted by their completed apps.
func (c *Collector) UtilizationAll() fabric.UtilRatios {
	if c.merged {
		if c.utilApps == 0 {
			return fabric.UtilRatios{}
		}
		w := c.utilApps
		return fabric.UtilRatios{LUT: c.utilSum.LUT / w, FF: c.utilSum.FF / w,
			DSP: c.utilSum.DSP / w, BRAM: c.utilSum.BRAM / w}
	}
	span := c.end.Sub(c.start).Seconds()
	if span <= 0 {
		return fabric.UtilRatios{}
	}
	var u fabric.UtilRatios
	if c.capLUT > 0 {
		u.LUT = c.lutResidentInt / (c.capLUT * span)
	}
	if c.capFF > 0 {
		u.FF = c.ffResidentInt / (c.capFF * span)
	}
	if c.capDSP > 0 {
		u.DSP = c.dspResidentInt / (c.capDSP * span)
	}
	if c.capBRAM > 0 {
		u.BRAM = c.bramResidentInt / (c.capBRAM * span)
	}
	return u
}

// Summary condenses the run.
type Summary struct {
	Apps       int
	MeanRT     sim.Duration
	P50, P95   sim.Duration
	P99, MaxRT sim.Duration
	MinRT      sim.Duration
	UtilLUT    float64
	UtilFF     float64
	// UtilDSP/UtilBRAM extend the paper's LUT/FF pair; DSP-bound
	// circuits surface on heterogeneous platforms.
	UtilDSP     float64
	UtilBRAM    float64
	MeanQueue   sim.Duration
	PRLoads     uint64
	PRBlocked   uint64
	PRRetries   uint64
	PRWait      sim.Duration
	Preemptions uint64
	// Migrations is always zero: no collector counts migrations. The
	// field stays because pinned Result digests include it; read
	// Result.Switches and Result.MigratedApps for a pair's live
	// migrations.
	Migrations uint64

	// Fault axis — populated only when fault injection is enabled and
	// omitted from JSON otherwise, so fault-free results stay
	// byte-identical to the pre-fault goldens. Availability is the
	// slot-seconds in service over the run's span; Downtime the summed
	// out-of-service time; FailedApps counts crash-restarted
	// applications, RetriedApps the distinct applications whose
	// reconfigurations needed fault-injected retries.
	Availability float64      `json:"Availability,omitempty"`
	Downtime     sim.Duration `json:"Downtime,omitempty"`
	FaultEvents  uint64       `json:"FaultEvents,omitempty"`
	FailedApps   uint64       `json:"FailedApps,omitempty"`
	RetriedApps  int          `json:"RetriedApps,omitempty"`
}

// Summarize computes the run summary. It reuses the collector's
// scratch buffer, so after the first call a summary allocates nothing;
// P50/P95/P99 all come from the one sorted pass.
func (c *Collector) Summarize() Summary {
	s := Summary{PRLoads: c.PRLoads, PRBlocked: c.PRBlocked,
		PRRetries: c.PRRetries, PRWait: c.PRWait,
		Preemptions: c.Preemptions}
	if c.faultsOn {
		s.Availability = c.availability()
		s.Downtime = c.downTotal
		s.FaultEvents = c.FaultEvents
		s.FailedApps = c.FailedApps
		s.RetriedApps = c.retriedApps()
	}
	if s.Apps = c.apps(); s.Apps == 0 {
		return s
	}
	u := c.UtilizationAll()
	s.UtilLUT, s.UtilFF = u.LUT, u.FF
	s.UtilDSP, s.UtilBRAM = u.DSP, u.BRAM
	if c.stream != nil {
		return c.streamSummary(s)
	}
	if cap(c.scratch) < len(c.Responses) {
		c.scratch = make([]float64, 0, len(c.Responses))
	}
	rts := c.scratch[:0]
	var sum, qsum float64
	for _, r := range c.Responses {
		rts = append(rts, float64(r.Response))
		sum += float64(r.Response)
		qsum += float64(r.QueueDelay)
	}
	c.scratch = rts
	s.MeanQueue = sim.Duration(qsum / float64(len(rts)))
	sort.Float64s(rts)
	s.MeanRT = sim.Duration(sum / float64(len(rts)))
	s.P50 = sim.Duration(Percentile(rts, 50))
	s.P95 = sim.Duration(Percentile(rts, 95))
	s.P99 = sim.Duration(Percentile(rts, 99))
	s.MinRT = sim.Duration(rts[0])
	s.MaxRT = sim.Duration(rts[len(rts)-1])
	return s
}

// SpecBreakdown summarizes response times per application type — e.g.
// how LeNet (which cannot bundle) fares on a Big.Little board versus
// the bundleable applications.
type SpecBreakdown struct {
	Spec   string
	Count  int
	MeanRT sim.Duration
	MaxRT  sim.Duration
}

// BySpec groups the collector's responses by application spec, sorted
// by spec name. In stream mode the aggregates were folded on arrival.
// A run sees a handful of specs, so the groups are found by a linear
// scan of a stack buffer and the result costs one exact-size slice.
func (c *Collector) BySpec() []SpecBreakdown {
	if c.stream != nil {
		return c.streamBySpec()
	}
	var buf [8]SpecBreakdown
	agg := buf[:0]
	for _, r := range c.Responses {
		i := 0
		for i < len(agg) && agg[i].Spec != r.Spec {
			i++
		}
		if i == len(agg) {
			agg = append(agg, SpecBreakdown{Spec: r.Spec})
		}
		b := &agg[i]
		b.Count++
		b.MeanRT += r.Response
		if r.Response > b.MaxRT {
			b.MaxRT = r.Response
		}
	}
	out := make([]SpecBreakdown, len(agg))
	copy(out, agg)
	slices.SortFunc(out, func(x, y SpecBreakdown) int { return strings.Compare(x.Spec, y.Spec) })
	for i := range out {
		out[i].MeanRT /= sim.Duration(out[i].Count)
	}
	return out
}

// MeanResponse returns the average response time across samples.
func MeanResponse(samples []ResponseSample) sim.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, r := range samples {
		sum += float64(r.Response)
	}
	return sim.Duration(sum / float64(len(samples)))
}

// Percentile returns the p-th percentile (0-100) of sorted values,
// using linear interpolation between closest ranks (the common
// "exclusive" definition degenerates on tiny samples; we use the
// inclusive nearest-rank-with-interpolation variant).
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MeanStd returns the sample mean and (population) standard deviation
// of values — the cross-sequence spread the evaluation reports.
func MeanStd(values []float64) (mean, std float64) {
	if len(values) == 0 {
		return 0, 0
	}
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	if len(values) == 1 {
		return mean, 0
	}
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(values)))
}

// PercentileOf sorts a copy of values and returns the p-th percentile.
func PercentileOf(values []float64, p float64) float64 {
	cp := make([]float64, len(values))
	copy(cp, values)
	sort.Float64s(cp)
	return Percentile(cp, p)
}
