package versaslot

import (
	"sort"

	"versaslot/internal/cluster"
	"versaslot/internal/metrics"
	"versaslot/internal/orchestrator"
	"versaslot/internal/sim"
)

// Result is the unified outcome of any scenario: the single-board
// summary metrics and the cluster/farm switching metrics merged into
// one type. Fields that do not apply to a topology are zero. Results
// marshal to JSON deterministically: the same Scenario and seed always
// produce byte-identical output.
type Result struct {
	// Scenario echoes the scenario name.
	Scenario string `json:"scenario,omitempty"`
	// Topology the run executed on.
	Topology Topology `json:"topology"`
	// Policy is the canonical registry name ("versaslot-bl"); for
	// cluster/farm runs it reports "versaslot-switching".
	Policy string `json:"policy"`
	// PolicyTitle is the display name ("VersaSlot Big.Little").
	PolicyTitle string `json:"policy_title"`
	// Platform is the board platform's registry name (single topology).
	Platform string `json:"platform,omitempty"`
	// PairPlatforms reports each switching pair's resolved platform
	// assignment (cluster/farm).
	PairPlatforms []cluster.PairPlatforms `json:"pair_platforms,omitempty"`
	// Condition is the workload's congestion label.
	Condition string `json:"condition"`
	// Seed is the run's kernel seed.
	Seed uint64 `json:"seed"`

	// Summary carries the response-time, utilization and PR-contention
	// statistics; for cluster/farm it is merged across all boards
	// (counters summed, distributions pooled over every board's
	// samples, utilizations weighted by per-board completed apps).
	Summary metrics.Summary `json:"summary"`
	// Samples are the per-application response samples (pooled and
	// sorted by application ID for multi-board runs).
	Samples []metrics.ResponseSample `json:"samples,omitempty"`
	// BySpec breaks response times down per application type.
	BySpec []metrics.SpecBreakdown `json:"by_spec,omitempty"`
	// CacheHits/CacheMisses report bitstream cache behaviour.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// LaunchWait is the cumulative time item launches waited on the
	// scheduler CPU (the execution-blocking effect of single-core
	// control planes, Fig. 2).
	LaunchWait sim.Duration `json:"launch_wait"`
	// Makespan is when the last application finished.
	Makespan sim.Time `json:"makespan"`

	// Switches counts cross-board live migrations (cluster/farm).
	Switches int `json:"switches,omitempty"`
	// MeanSwitchTime is the average migration overhead.
	MeanSwitchTime sim.Duration `json:"mean_switch_time,omitempty"`
	// MigratedApps counts applications moved across boards.
	MigratedApps int `json:"migrated_apps,omitempty"`
	// SwitchTrace is the D_switch evaluation trace (Fig. 8 left).
	SwitchTrace []cluster.TracePoint `json:"switch_trace,omitempty"`
	// Routed reports arrivals dispatched per pair (farm only).
	Routed []int `json:"routed,omitempty"`
	// Dispatcher is the canonical name of the farm's arrival
	// dispatcher (farm only).
	Dispatcher string `json:"dispatcher,omitempty"`
	// PairStats breaks the farm run down per switching pair: routing,
	// response times, utilization, and rebalancer traffic.
	PairStats []cluster.PairStat `json:"pair_stats,omitempty"`
	// CrossMigrations counts rebalancer-driven pair-to-pair transfers;
	// CrossMigratedApps and MeanCrossTime price them (farm only).
	CrossMigrations   int          `json:"cross_migrations,omitempty"`
	CrossMigratedApps int          `json:"cross_migrated_apps,omitempty"`
	MeanCrossTime     sim.Duration `json:"mean_cross_time,omitempty"`

	// Tenants is the per-tenant admission ledger and response/SLO
	// breakdown (farm runs with a tenants block). Each entry always
	// reconciles: submitted == admitted + rejected + queued and
	// admitted == finished + in_flight.
	Tenants []orchestrator.TenantStat `json:"tenants,omitempty"`
	// Autoscale summarizes the autoscaler's activity (farm runs with
	// an autoscale block): scale-up/drain counts, migrated apps, peak
	// and final online pair counts, and the timestamped event log.
	Autoscale *orchestrator.AutoscaleStats `json:"autoscale,omitempty"`

	// MetricsMode records the metrics pipeline the run used: empty for
	// the exact default, "stream" for the bounded-memory sketch mode.
	MetricsMode string `json:"metrics_mode,omitempty"`
	// TimeSeries is the streaming windowed time-series (stream mode
	// only): per-window mean RT, P50/P99, utilization, and migration/
	// fault-event counts over the most recent max_windows windows,
	// merged across every board of the run.
	TimeSeries []metrics.WindowStat `json:"time_series,omitempty"`
}

// MeanRT is a convenience accessor for Summary.MeanRT.
func (r *Result) MeanRT() sim.Duration { return r.Summary.MeanRT }

// Percentile computes a response-time percentile over the result's
// samples (the paper's tails pool each condition's sequences).
func (r *Result) Percentile(p float64) sim.Duration {
	return pooledPercentile(r.Samples, p)
}

// PooledSamples concatenates response samples across results.
func PooledSamples(results []*Result) []metrics.ResponseSample {
	var out []metrics.ResponseSample
	for _, r := range results {
		out = append(out, r.Samples...)
	}
	return out
}

// PooledPercentile computes a percentile over all results' samples.
func PooledPercentile(results []*Result, p float64) sim.Duration {
	return pooledPercentile(PooledSamples(results), p)
}

// MeanRT averages the per-result mean response times.
func MeanRT(results []*Result) sim.Duration {
	if len(results) == 0 {
		return 0
	}
	var sum float64
	for _, r := range results {
		sum += float64(r.Summary.MeanRT)
	}
	return sim.Duration(sum / float64(len(results)))
}

func pooledPercentile(samples []metrics.ResponseSample, p float64) sim.Duration {
	if len(samples) == 0 {
		return 0
	}
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = float64(s.Response)
	}
	return sim.Duration(metrics.PercentileOf(vals, p))
}

// setMetricsMode records the metrics pipeline the scenario ran.
func (r *Result) setMetricsMode(s Scenario) {
	if _, streaming := s.streamConfig(); streaming {
		r.MetricsMode = "stream"
	}
}

// fillFromBoards fills the result's metrics from the boards of pairs.
// A fixed pair's one board reports straight from its collector, with
// its samples in finish order. Switching pairs merge every board
// through one aggregate collector (see cluster.Cluster.AbsorbInto and
// metrics.Collector.Absorb for the merge rules), with the pooled
// samples sorted by application ID before summarizing. A spare board
// that was never built served no bitstream and launched nothing, so
// only built boards add cache and launch-wait counts.
func (r *Result) fillFromBoards(pairs []*cluster.Cluster) {
	single := pairs[0].Cfg.Policy != nil
	var agg metrics.Collector
	col := &agg
	for _, p := range pairs {
		if !single {
			p.AbsorbInto(&agg)
		}
		for _, mode := range clusterModes {
			e := p.Built(mode)
			if e == nil {
				continue
			}
			if single {
				col = e.Col
			}
			hits, misses := e.Cache.Stats()
			r.CacheHits += hits
			r.CacheMisses += misses
			r.LaunchWait += e.Cores.Sched.WaitOf("launch")
		}
	}
	if !single {
		sort.Slice(agg.Responses, func(i, j int) bool { return agg.Responses[i].AppID < agg.Responses[j].AppID })
	}
	r.Summary = col.Summarize()
	r.Samples = col.Responses
	r.BySpec = col.BySpec()
	r.Makespan = col.EndTime()
	r.TimeSeries = col.Windows()
}
