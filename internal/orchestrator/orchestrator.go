package orchestrator

import (
	"fmt"
	"sort"

	"versaslot/internal/appmodel"
	"versaslot/internal/cluster"
	"versaslot/internal/metrics"
	"versaslot/internal/migrate"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// Over-quota policies.
const (
	// OverQuotaThrottle queues over-quota submissions until the
	// tenant's in-flight count drops below its quota (the default).
	OverQuotaThrottle = "throttle"
	// OverQuotaReject drops over-quota submissions; they never enter
	// the farm and are counted in the tenant's rejected ledger.
	OverQuotaReject = "reject"
)

// defaultAdmitEvery is the admission pump's cadence: how often queued
// (throttled) submissions are re-examined for release. Releases happen
// only at pump instants — never inline from a completion hook — so the
// admission control plane stays on the coordinator kernel and the run
// is byte-identical under the sharded farm executor.
const defaultAdmitEvery = 250 * sim.Millisecond

// TenantSpec declares one tenant of a multi-tenant farm: its share of
// the fleet (quota), its standing in the release order (priority), its
// own arrival process, and its service-level objective.
type TenantSpec struct {
	// Name identifies the tenant; must be unique within a scenario.
	// The tenant's workload seed derives from (scenario seed, name),
	// so adding or renaming one tenant never perturbs another's
	// arrivals.
	Name string `json:"name"`
	// Apps sizes the tenant's generated sequence; zero inherits the
	// scenario's app count.
	Apps int `json:"apps,omitempty"`
	// Quota is the tenant's maximum in-flight (admitted, unfinished)
	// application count; zero means unlimited. Admission enforces it
	// at every arrival and release instant.
	Quota int `json:"quota,omitempty"`
	// Priority orders throttle-queue releases when capacity frees up:
	// lower values release first; ties release in declaration order.
	Priority int `json:"priority,omitempty"`
	// OverQuota selects what happens to an over-quota submission:
	// "throttle" (default) queues it, "reject" drops it.
	OverQuota string `json:"over_quota,omitempty"`
	// SLO is the tenant's response-time objective; per-tenant SLO
	// attainment (fraction of finished apps with response <= SLO) is
	// reported when set.
	SLO sim.Duration `json:"slo,omitempty"`
	// Condition overrides the scenario's congestion regime for this
	// tenant's generated workload.
	Condition string `json:"condition,omitempty"`
	// Arrival selects the tenant's arrival process; nil keeps the
	// classic uniform generator under the tenant's condition.
	Arrival *workload.ArrivalSpec `json:"arrival,omitempty"`
}

// Validate checks the tenant-local invariants (the scenario layer
// additionally checks name uniqueness and the arrival spec against the
// resolved condition).
func (t TenantSpec) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("orchestrator: tenant with empty name")
	}
	if t.Apps < 0 {
		return fmt.Errorf("orchestrator: tenant %q: negative app count %d", t.Name, t.Apps)
	}
	if t.Quota < 0 {
		return fmt.Errorf("orchestrator: tenant %q: negative quota %d", t.Name, t.Quota)
	}
	if t.SLO < 0 {
		return fmt.Errorf("orchestrator: tenant %q: negative slo %v", t.Name, t.SLO)
	}
	switch t.OverQuota {
	case "", OverQuotaThrottle, OverQuotaReject:
	default:
		return fmt.Errorf("orchestrator: tenant %q: unknown over_quota policy %q (want throttle|reject)", t.Name, t.OverQuota)
	}
	return nil
}

// rejects reports whether over-quota submissions are dropped.
func (t TenantSpec) rejects() bool { return t.OverQuota == OverQuotaReject }

// TenantStat is one tenant's ledger and service outcome. The ledger
// always reconciles: Submitted == Admitted + Rejected + Queued, and
// Admitted == Finished + InFlight. A run that completed (horizon after
// the last completion) has Queued == InFlight == 0.
type TenantStat struct {
	// Tenant echoes the tenant name; Priority and Quota echo the spec.
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority,omitempty"`
	Quota    int    `json:"quota,omitempty"`
	// Submitted counts the tenant's arrivals; Admitted the ones
	// dispatched into the farm; Rejected the over-quota drops;
	// Throttled the ones that waited in the admission queue at least
	// once (a throttled app is still admitted later, so Throttled
	// overlaps Admitted).
	Submitted int `json:"submitted"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected,omitempty"`
	Throttled int `json:"throttled,omitempty"`
	// Finished counts completions; InFlight and Queued are the
	// end-of-run remainders (zero for a completed run).
	Finished int `json:"finished"`
	InFlight int `json:"in_flight,omitempty"`
	Queued   int `json:"queued,omitempty"`
	// MeanRT/P50/P99 summarize the tenant's response times (sketch-
	// derived, like the farm's streaming pipeline). Response time is
	// measured from submission, so throttle wait counts against it.
	MeanRT sim.Duration `json:"mean_rt,omitempty"`
	P50    sim.Duration `json:"p50,omitempty"`
	P99    sim.Duration `json:"p99,omitempty"`
	// SLO echoes the spec; SLOAttainment is the fraction of finished
	// apps within it (reported only when an SLO is set and at least
	// one app finished).
	SLO           sim.Duration `json:"slo,omitempty"`
	SLOAttainment float64      `json:"slo_attainment,omitempty"`
}

// Config parameterizes an orchestrator over one farm.
type Config struct {
	// Tenants declares the tenant set; empty means no admission
	// control (the autoscaler can still run over a plain workload).
	Tenants []TenantSpec
	// Autoscale enables the autoscaler; nil leaves the pair pool
	// fixed. When set, the farm must have been built with Max pairs
	// total and Max - initial online pairs in standby.
	Autoscale *AutoscaleSpec
	// AdmitEvery overrides the admission pump cadence (default 250ms
	// of virtual time).
	AdmitEvery sim.Duration
}

// Orchestrator is the control plane over one farm: per-tenant
// admission (quotas, priorities, reject/throttle) and the load-driven
// autoscaler. All of its events run on the farm's coordinator kernel —
// arrivals at sim.PriArrival, everything else (admission pump ticks,
// autoscale ticks, activations, drains) at sim.PriFarmControl — so an
// orchestrated run is byte-identical sequential, parallel-swept, and
// sharded.
type Orchestrator struct {
	f   *cluster.Farm
	cfg Config

	// Per-tenant ledgers. Every counter here is written only on the
	// coordinator (arrival and pump instants); completions are counted
	// in resp's per-(tenant, pair) lanes by the pair-local finish
	// hooks, so sharded workers never share a written cell.
	submitted []int
	admitted  []int
	rejected  []int
	throttled []int
	queues    [][]*appmodel.App

	// resp accumulates per-(tenant, pair) response sketches, counts,
	// and SLO hits; see metrics.GroupLanes for the writer discipline.
	resp *metrics.GroupLanes

	// firstID[i] is tenant i's first app ID; IDs are contiguous per
	// tenant, so tenantOf is a range scan.
	firstID []int

	// Merged arrival stream across tenants, walked by one chained
	// cursor event (the farm's own Inject cursor pattern).
	slots []arrSlot
	pos   int
	arrFn func()

	// order is the static release order (priority asc, ties in
	// declaration order) and pumpFn the pump's bound closure; both are
	// built once in New so a steady-state admission decision allocates
	// nothing.
	order     []int
	pumpFn    func()
	pumpArmed bool
	pumpID    sim.EventID
	as        *autoscaler

	// OnAdmit, when set, observes every admission with the tenant's
	// in-flight count after the admit — the hook the property tests
	// use to assert quotas are never exceeded at any instant.
	OnAdmit func(tenant, inflight int)
}

type arrSlot struct {
	app    *appmodel.App
	tenant int
}

// New builds an orchestrator over a farm. With tenants configured it
// chains per-pair completion hooks for the tenant ledgers; with
// autoscale configured it validates the farm was built to Max pairs.
func New(f *cluster.Farm, cfg Config) (*Orchestrator, error) {
	if cfg.AdmitEvery < 0 {
		return nil, fmt.Errorf("orchestrator: negative admit cadence %v", cfg.AdmitEvery)
	}
	if cfg.AdmitEvery == 0 {
		cfg.AdmitEvery = defaultAdmitEvery
	}
	names := make(map[string]bool, len(cfg.Tenants))
	for _, t := range cfg.Tenants {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if names[t.Name] {
			return nil, fmt.Errorf("orchestrator: duplicate tenant name %q", t.Name)
		}
		names[t.Name] = true
	}
	o := &Orchestrator{f: f, cfg: cfg}
	if cfg.Autoscale != nil {
		spec := cfg.Autoscale.Defaulted()
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		if spec.Max != len(f.Pairs) {
			return nil, fmt.Errorf("orchestrator: autoscale max %d but the farm was built with %d pairs (build the farm with Pairs=max, Standby=max-initial)",
				spec.Max, len(f.Pairs))
		}
		if f.OnlineCount() < spec.Min {
			return nil, fmt.Errorf("orchestrator: %d pairs online at start, below autoscale min %d", f.OnlineCount(), spec.Min)
		}
		o.as = newAutoscaler(o, spec)
	}
	if n := len(cfg.Tenants); n > 0 {
		o.submitted = make([]int, n)
		o.admitted = make([]int, n)
		o.rejected = make([]int, n)
		o.throttled = make([]int, n)
		o.queues = make([][]*appmodel.App, n)
		o.firstID = make([]int, n)
		o.resp = metrics.NewGroupLanes(n, len(f.Pairs), metrics.GlobalSketchBits)
		o.order = o.releaseOrder()
		o.chainFinishHooks()
	}
	o.pumpFn = o.pump
	return o, nil
}

// chainFinishHooks appends a per-tenant accounting hook to every
// engine's OnAppFinished: completions land in the (tenant, pair) lane
// owned by the pair's worker, the same single-writer pattern as the
// farm's finishedBy counters.
func (o *Orchestrator) chainFinishHooks() {
	for i, pair := range o.f.Pairs {
		lane := i
		for _, mode := range []migrate.Mode{migrate.Base, migrate.Boost} {
			e := pair.Engine(mode)
			prev := e.OnAppFinished
			e.OnAppFinished = func(a *appmodel.App) {
				if prev != nil {
					prev(a)
				}
				t := o.tenantOf(a.ID)
				if t < 0 {
					return
				}
				rt := int64(a.ResponseTime())
				o.resp.Observe(t, lane, rt, o.cfg.Tenants[t].SLO > 0 && rt <= int64(o.cfg.Tenants[t].SLO))
			}
		}
	}
}

// tenantOf maps an app ID to its tenant index via the contiguous
// per-tenant ID ranges (-1 for apps the orchestrator did not inject).
func (o *Orchestrator) tenantOf(id int) int {
	for i := len(o.firstID) - 1; i >= 0; i-- {
		if id >= o.firstID[i] {
			if id < o.firstID[i]+o.submitted[i] {
				return i
			}
			return -1
		}
	}
	return -1
}

// InjectTenants instantiates one sequence per tenant (same order as
// Config.Tenants), assigns each tenant a contiguous app-ID range, and
// schedules the merged arrival stream on the coordinator kernel. Every
// arrival passes through admission at its instant.
func (o *Orchestrator) InjectTenants(seqs []*workload.Sequence) error {
	if len(seqs) != len(o.cfg.Tenants) {
		return fmt.Errorf("orchestrator: %d sequences for %d tenants", len(seqs), len(o.cfg.Tenants))
	}
	base := 0
	for i, seq := range seqs {
		apps, err := seq.Instantiate(base)
		if err != nil {
			return err
		}
		for _, a := range apps {
			if !o.f.CanHostAnywhere(a) {
				return fmt.Errorf("orchestrator: tenant %q: app %v (%s) fits no slot class on any pair of the farm",
					o.cfg.Tenants[i].Name, a, a.Spec.Name)
			}
		}
		o.firstID[i] = base
		o.submitted[i] = len(apps)
		base += len(apps)
		for _, a := range apps {
			o.slots = append(o.slots, arrSlot{app: a, tenant: i})
		}
	}
	// Stable by arrival instant: same-instant submissions keep tenant
	// declaration order, then per-tenant ID order.
	sort.SliceStable(o.slots, func(i, j int) bool {
		return o.slots[i].app.Arrival < o.slots[j].app.Arrival
	})
	if len(o.slots) == 0 {
		return nil
	}
	o.arrFn = func() {
		s := o.slots[o.pos]
		o.pos++
		if o.pos < len(o.slots) {
			o.f.K.AtP(o.slots[o.pos].app.Arrival, sim.PriArrival, o.arrFn)
		}
		o.arrive(s)
	}
	o.f.K.AtP(o.slots[0].app.Arrival, sim.PriArrival, o.arrFn)
	return nil
}

// Start arms the autoscaler's first evaluation tick. Call after
// injection (tenant or plain), before Run.
func (o *Orchestrator) Start() {
	if o.as != nil {
		o.as.arm()
	}
}

// inFlight is tenant t's admitted-but-unfinished count. On the
// coordinator between phases this is exact in every execution mode.
func (o *Orchestrator) inFlight(t int) int {
	return o.admitted[t] - o.resp.Count(t)
}

// arrive is the admission decision at one submission instant.
func (o *Orchestrator) arrive(s arrSlot) {
	t := o.cfg.Tenants[s.tenant]
	overQuota := t.Quota > 0 && o.inFlight(s.tenant) >= t.Quota
	if overQuota && t.rejects() {
		o.rejected[s.tenant]++
		return
	}
	// Over quota (throttle policy), or schedulable capacity does not
	// exist yet (every hosting pair is in standby — the autoscaler
	// will commission one under queue pressure): hold the app.
	if overQuota || !o.f.CanDispatch(s.app) {
		o.queues[s.tenant] = append(o.queues[s.tenant], s.app)
		o.throttled[s.tenant]++
		o.armPump()
		return
	}
	o.admit(s.tenant, s.app)
}

// admit dispatches one application into the farm and bumps the ledger.
func (o *Orchestrator) admit(t int, a *appmodel.App) {
	o.admitted[t]++
	if o.OnAdmit != nil {
		o.OnAdmit(t, o.inFlight(t))
	}
	o.f.DispatchNow(a)
}

// armPump schedules the next admission pump tick if one is not
// already pending.
func (o *Orchestrator) armPump() {
	if o.pumpArmed {
		return
	}
	o.pumpArmed = true
	o.pumpID = o.f.K.ScheduleP(o.cfg.AdmitEvery, sim.PriFarmControl, o.pumpFn)
}

// TickHorizon returns the earliest control tick the orchestrator has
// pending on the coordinator kernel — the admission pump or the
// autoscaler's next evaluation — and false when neither is armed. The
// sharded executor's conservative-lookahead bound is the coordinator
// kernel's next event time; this accessor exposes the orchestrator's
// share of that horizon, so tests and diagnostics can verify that
// every orchestrator tick is visible to the coordinator before any
// shard is allowed to run past it.
func (o *Orchestrator) TickHorizon() (sim.Time, bool) {
	horizon, armed := sim.MaxTime, false
	if t, live := o.f.K.EventTime(o.pumpID); live && o.pumpArmed {
		horizon, armed = t, true
	}
	if o.as != nil {
		if t, live := o.f.K.EventTime(o.as.tickID); live && t < horizon {
			horizon, armed = t, true
		}
	}
	if !armed {
		return 0, false
	}
	return horizon, true
}

// pump re-examines the throttle queues: tenants release in priority
// order (lower first, ties in declaration order), each FIFO within the
// tenant, for as long as quota headroom and schedulable capacity
// exist. A blocked queue head blocks its tenant's queue — FIFO order
// is part of the fairness contract. The pump re-arms only while work
// remains queued, so it winds down with the workload.
func (o *Orchestrator) pump() {
	o.pumpArmed = false
	for _, t := range o.order {
		spec := o.cfg.Tenants[t]
		for len(o.queues[t]) > 0 {
			head := o.queues[t][0]
			if spec.Quota > 0 && o.inFlight(t) >= spec.Quota {
				break
			}
			if !o.f.CanDispatch(head) {
				break
			}
			copy(o.queues[t], o.queues[t][1:])
			o.queues[t] = o.queues[t][:len(o.queues[t])-1]
			o.admit(t, head)
		}
	}
	for _, q := range o.queues {
		if len(q) > 0 {
			o.armPump()
			return
		}
	}
}

// releaseOrder builds the tenant indices sorted by (priority, index);
// computed once in New, the tenant set being static for the run.
func (o *Orchestrator) releaseOrder() []int {
	order := make([]int, len(o.cfg.Tenants))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return o.cfg.Tenants[order[a]].Priority < o.cfg.Tenants[order[b]].Priority
	})
	return order
}

// queuedTotal sums the throttle queues.
func (o *Orchestrator) queuedTotal() int {
	n := 0
	for _, q := range o.queues {
		n += len(q)
	}
	return n
}

// done reports whether the orchestrated run has fully wound down:
// every arrival fired, nothing queued, the farm quiescent, and no
// scale operation in flight. The autoscaler stops ticking on it.
func (o *Orchestrator) done() bool {
	if o.pos < len(o.slots) || o.queuedTotal() > 0 || !o.f.Quiescent() {
		return false
	}
	if o.as != nil && (o.as.pendingUp > 0 || o.f.DrainingCount() > 0) {
		return false
	}
	return true
}

// TenantStats summarizes the per-tenant ledgers and response
// distributions after Run. Nil when no tenants were configured.
func (o *Orchestrator) TenantStats() []TenantStat {
	if len(o.cfg.Tenants) == 0 {
		return nil
	}
	out := make([]TenantStat, len(o.cfg.Tenants))
	var sk *metrics.Sketch
	for i, t := range o.cfg.Tenants {
		finished := o.resp.Count(i)
		st := TenantStat{
			Tenant:    t.Name,
			Priority:  t.Priority,
			Quota:     t.Quota,
			Submitted: o.submitted[i],
			Admitted:  o.admitted[i],
			Rejected:  o.rejected[i],
			Throttled: o.throttled[i],
			Finished:  finished,
			InFlight:  o.inFlight(i),
			Queued:    len(o.queues[i]),
			SLO:       t.SLO,
		}
		if finished > 0 {
			sk = o.resp.MergeGroup(i, sk)
			st.MeanRT = sim.Duration(sk.Mean())
			st.P50 = sim.Duration(sk.LowerQuantile(50))
			st.P99 = sim.Duration(sk.LowerQuantile(99))
			if t.SLO > 0 {
				st.SLOAttainment = float64(o.resp.OKCount(i)) / float64(finished)
			}
		}
		out[i] = st
	}
	return out
}

// AutoscaleStats summarizes the autoscaler's activity after Run. Nil
// when autoscaling was not configured.
func (o *Orchestrator) AutoscaleStats() *AutoscaleStats {
	if o.as == nil {
		return nil
	}
	return o.as.stats()
}
