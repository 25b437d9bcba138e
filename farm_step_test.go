package versaslot

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"versaslot/internal/cluster"
	"versaslot/internal/fabric"
	"versaslot/internal/fault"
	"versaslot/internal/orchestrator"
	"versaslot/internal/sim"
	"versaslot/internal/trace"
	"versaslot/internal/workload"
)

// stepFarm runs a scenario as Runner.Run does, except that the farm
// executes one event at a time through Farm.Step before the result
// merges it.
func stepFarm(t *testing.T, s Scenario) *Result {
	t.Helper()
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var seq *workload.Sequence
	if len(s.Tenants) == 0 {
		var err error
		if seq, err = s.Sequence(); err != nil {
			t.Fatal(err)
		}
	}
	fr, err := NewRunner().newFarmRun(s, seq, false)
	if err != nil {
		t.Fatal(err)
	}
	for fr.f.Step() {
	}
	return fr.result()
}

// TestFarmStepMatchesRun is the farm executor's oracle. Run executes a
// farm in batches: each pair runs alone up to the next control instant,
// pair after pair. Step executes one event at a time, pair events in
// time order across pairs. Both must produce byte-identical Results:
// for every dispatcher on uniform and mixed-platform farms, under every
// fault injector, for tenants with autoscaling, for a single board (a
// fixed pair), and in exact and streaming metrics mode.
func TestFarmStepMatchesRun(t *testing.T) {
	mixed := make([]cluster.PairPlatforms, 6)
	for i := range mixed {
		switch i % 3 {
		case 1:
			mixed[i] = cluster.PairPlatforms{Base: fabric.U250Quad, Boost: fabric.U250Quad}
		case 2:
			mixed[i] = cluster.PairPlatforms{Base: fabric.PYNQDual, Boost: fabric.PYNQDual}
		}
	}
	base := Scenario{Topology: TopologyFarm, Pairs: 6, Condition: "stress", Apps: 48, Seed: 4242,
		RebalanceEvery: 2 * sim.Second}
	var cases []Scenario
	for _, name := range cluster.DispatcherNames() {
		s := base
		s.Name, s.Dispatcher = name, name
		hetero := s
		hetero.Name, hetero.PairPlatforms = name+"/hetero", mixed
		cases = append(cases, s, hetero)
	}
	chaos := Scenario{Name: "chaos", Topology: TopologyFarm, Pairs: 4, Condition: "stress", Apps: 32, Seed: 777,
		RebalanceEvery: 2 * sim.Second, Faults: &fault.Spec{Injectors: []fault.InjectorSpec{
			{Kind: fault.KindSlotFail, MTBF: 4 * sim.Second, MTTR: 200 * sim.Millisecond},
			{Kind: fault.KindBoardFail, MTBF: 9 * sim.Second, MTTR: 400 * sim.Millisecond},
			{Kind: fault.KindStraggler, MTBF: 5 * sim.Second, MTTR: 300 * sim.Millisecond, Factor: 2.5},
			{Kind: fault.KindPRFlaky, Rate: 0.05, MaxRetries: 3, Backoff: sim.Millisecond, BackoffFactor: 2},
			{Kind: fault.KindCheckpoint, CheckpointBytes: 512, RestoreDelay: 200 * sim.Microsecond},
		}}}
	tenants := Scenario{Name: "tenants-autoscale", Topology: TopologyFarm, Pairs: 1, Condition: "stress", Seed: 13,
		Tenants: []orchestrator.TenantSpec{
			{Name: "batch", Apps: 18, Quota: 4, Priority: 5, SLO: 80 * sim.Second},
			{Name: "interactive", Apps: 12, Quota: 3, Priority: 1, SLO: 40 * sim.Second},
			{Name: "spiky", Apps: 10, Quota: 2, OverQuota: orchestrator.OverQuotaReject},
		},
		Autoscale: &orchestrator.AutoscaleSpec{Min: 1, Max: 3, Every: 500 * sim.Millisecond, Window: 2, UpLoad: 4, DownLoad: 1}}
	stream := Scenario{Name: "stream", Topology: TopologyFarm, Pairs: 6, Condition: "stress", Apps: 90, Seed: 11,
		RebalanceEvery: 5 * sim.Second, Metrics: &MetricsSpec{Mode: "stream", Window: 5 * sim.Second, MaxWindows: 16}}
	streamChaos := chaos
	streamChaos.Name, streamChaos.Metrics = "chaos/stream", stream.Metrics
	switching := Scenario{Name: "cluster-switching", Topology: TopologyCluster, Condition: "real-time", Apps: 48, Seed: 1}
	// A single board is a farm of one fixed pair: plain, under every
	// injector, and streaming.
	single := Scenario{Name: "single", Policy: "nimblock", Condition: "stress", Apps: 24, Seed: 5}
	singleChaos := Scenario{Name: "single/chaos", Policy: "versaslot-bl", Condition: "stress", Apps: 24, Seed: 777,
		Faults: chaos.Faults}
	singleStream := Scenario{Name: "single/stream", Policy: "versaslot-ol", Condition: "stress", Apps: 40, Seed: 11,
		Metrics: stream.Metrics}
	cases = append(cases, chaos, streamChaos, tenants, stream, switching, single, singleChaos, singleStream)
	for _, s := range cases {
		t.Run(s.Name, func(t *testing.T) {
			ran, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			want, got := mustJSON(t, ran), mustJSON(t, stepFarm(t, s))
			if got != want {
				t.Errorf("stepped farm reports\n%s\nwant Run's\n%s", got, want)
			}
			if s.Metrics != nil && (len(ran.Samples) != 0 || len(ran.TimeSeries) == 0) {
				t.Errorf("stream farm retained %d samples and reported %d windows; want none and some",
					len(ran.Samples), len(ran.TimeSeries))
			}
		})
	}
}

// TestFarmTraceIndependentOfCPUs runs a 128-pair round-robin farm with
// a trace sink and a recorder at GOMAXPROCS 1 and 2: the farm runs on
// one goroutine either way, so both must print the same lines and
// record the same events.
func TestFarmTraceIndependentOfCPUs(t *testing.T) {
	s := Scenario{Topology: TopologyFarm, Pairs: 128, Dispatcher: "round-robin", Condition: "stress", Apps: 256, Seed: 3}
	type output struct {
		lines       int
		trace, recs [sha256.Size]byte
	}
	run := func(procs int) output {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		lines := sha256.New()
		var out output
		rec := trace.NewRecorder(0)
		r := NewRunner(WithRecorder(rec), WithTrace(func(format string, args ...any) {
			out.lines++
			fmt.Fprintf(lines, format+"\n", args...)
		}))
		if _, err := r.Run(s); err != nil {
			t.Fatal(err)
		}
		copy(out.trace[:], lines.Sum(nil))
		recs := sha256.New()
		rec.WriteLog(recs)
		copy(out.recs[:], recs.Sum(nil))
		if out.lines == 0 || rec.Len() == 0 {
			t.Errorf("GOMAXPROCS %d: %d trace lines, %d recorded events; want both", procs, out.lines, rec.Len())
		}
		return out
	}
	one, two := run(1), run(2)
	if one != two {
		t.Errorf("trace differs across CPU counts: GOMAXPROCS 1 printed %d lines, GOMAXPROCS 2 printed %d (or their content or recordings differ)",
			one.lines, two.lines)
	}
}
