package versaslot_test

import (
	"flag"
	"testing"
)

// benchCeiling pins one benchmark body (shared with its Benchmark
// func) under explicit ceilings. allocs and bytes are the allocs/op and
// B/op measured when the ceilings were set (go1.24.0, the highest of
// three runs); ns is the ns/op of the earlier committed baseline on the
// same Go version.
type benchCeiling struct {
	name      string
	benchtime string
	body      func(*testing.B)
	ns        float64
	allocs    int64
	bytes     int64
}

// Heap allocation counts and bytes do not depend on the host, so their
// ceilings are tight: 25% and 50% headroom plus half a unit of rounding
// slack (a zero baseline admits exactly zero). ns/op varies across
// hosts, so its 4x ceiling catches order-of-magnitude regressions, such
// as a return to per-event heap allocation, not jitter.
const (
	allocsTolerance = 1.25
	bytesTolerance  = 1.5
	nsTolerance     = 4.0
)

// benchCeilings are the pinned rows. The rows whose allocs and bytes
// fell when farms started building their pairs from slabs and
// single-board systems as one block were re-measured then (go1.24.0,
// 2 CPUs, the highest of three runs). The FarmRun rows build their farm
// with the timer stopped, so they kept their bases; they carry the
// bases of the FarmDispatchSharded shards=1 rows they replaced,
// measured when Shards: 1 ran every pair on one shared kernel.
// When farms started building a pair's boards on first use, the
// least-loaded FarmDispatch rows' B/op and the rows whose allocs fell
// with the allocation-free rebalance tick were re-measured the same
// way; the round-robin row, whose farm builds every pair, was measured
// at the commit before, so building on first use cannot cost a farm
// that touches every pair more than it did.
var benchCeilings = []benchCeiling{
	{"KernelEvents", "0.5s", BenchmarkKernelEvents, 11.46, 0, 0},
	{"ServerJobs", "0.5s", BenchmarkServerJobs, 34.35, 0, 0},
	{"PipelineMakespan", "0.5s", BenchmarkPipelineMakespan, 5712, 24, 4144},
	{"WorkloadGeneration", "0.5s", BenchmarkWorkloadGeneration, 1320, 9, 2240},
	{"EndToEndStress", "2x", BenchmarkEndToEndStress, 1615970, 37, 22092},
	{"ChaosFaults", "2x", BenchmarkChaosFaults, 2185523, 317, 55260},
	{"FarmDispatch/least-loaded/pairs=32", "2x", farmDispatchBench("least-loaded", 32), 9236276, 314, 214296},
	{"FarmDispatch/least-loaded/pairs=128", "2x", farmDispatchBench("least-loaded", 128), 26659674, 463, 633768},
	{"FarmDispatch/round-robin/pairs=128", "2x", farmDispatchBench("round-robin", 128), 21073794, 2440, 1268680},
	{"FarmDispatchHetero/least-loaded/pairs=32", "2x", farmHeteroBench(32), 6643518, 372, 246320},
	{"FarmRun/pairs=128", "2x", farmRunBench(128), 27874166, 380, 267072},
	{"FarmRun/pairs=1024", "2x", farmRunBench(1024), 227557740, 484, 1756768},
	{"StreamingHorizon/samples=100000", "2x", streamingHorizonBench(100000), 4751190, 367, 535760},
	{"StreamingHorizon/samples=1000000", "2x", streamingHorizonBench(1000000), 33475044, 398, 630992},
	{"AutoscaleChurn", "4x", BenchmarkAutoscaleChurn, 4263075, 407, 212262},
}

// measure runs row's body under the row's own benchtime.
func measure(t *testing.T, row benchCeiling) testing.BenchmarkResult {
	t.Helper()
	benchtime := flag.Lookup("test.benchtime").Value
	saved := benchtime.String()
	defer benchtime.Set(saved)
	if err := benchtime.Set(row.benchtime); err != nil {
		t.Fatal(err)
	}
	r := testing.Benchmark(row.body)
	if r.N == 0 {
		t.Fatal("benchmark failed")
	}
	return r
}

// TestBenchCeilings runs the substrate micro-benchmarks plus the
// end-to-end stress, chaos-fault, farm-dispatch, farm-run,
// streaming-metrics and autoscale-churn benchmarks, and fails when one
// exceeds its allocs/op or B/op ceiling. Those figures do not depend on
// the host or on what else shares its CPUs, so the test runs in the
// tier-1 suite; the timed half is BenchmarkCeilings. The B/op ceilings
// also pin the streaming pipeline's bounded memory:
// BenchmarkStreamingHorizon allocates the same few hundred KiB for 100k
// and 1M samples, and a return to per-sample retention fails at the
// million-sample size.
func TestBenchCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation figures")
	}
	for _, row := range benchCeilings {
		t.Run(row.name, func(t *testing.T) {
			r := measure(t, row)
			allocs, bytes := r.AllocsPerOp(), r.AllocedBytesPerOp()
			t.Logf("%d allocs/op (base %d), %d B/op (base %d)", allocs, row.allocs, bytes, row.bytes)
			if limit := float64(row.allocs)*allocsTolerance + 0.5; float64(allocs) > limit {
				t.Errorf("%d allocs/op exceeds the %.1f allocs/op ceiling (%d x%.2f)", allocs, limit, row.allocs, allocsTolerance)
			}
			if limit := float64(row.bytes)*bytesTolerance + 0.5; float64(bytes) > limit {
				t.Errorf("%d B/op exceeds the %.0f B/op ceiling (%d x%.2f)", bytes, limit, row.bytes, bytesTolerance)
			}
		})
	}
}

// BenchmarkCeilings is the timed half of the ceilings: it runs every
// row as a sub-benchmark and fails when one exceeds its ns/op ceiling.
// Wall time depends on the host and on its load, so this runs on its
// own, not in the test suite:
//
//	go test -run '^$' -bench '^BenchmarkCeilings$' -benchtime 0.5s -count=1 .
func BenchmarkCeilings(b *testing.B) {
	if raceEnabled {
		b.Skip("race instrumentation inflates timing figures")
	}
	for _, row := range benchCeilings {
		var ns float64
		b.Run(row.name, func(b *testing.B) {
			row.body(b)
			// The last call runs the final b.N, so its figure stays.
			ns = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		})
		nsLimit := row.ns * nsTolerance
		b.Logf("%s: %.0f ns/op (%.2fx of %g)", row.name, ns, ns/row.ns, row.ns)
		if ns > nsLimit {
			b.Errorf("%s: %.0f ns/op exceeds the %.0f ns/op ceiling (%g x%.1f)", row.name, ns, nsLimit, row.ns, nsTolerance)
		}
	}
}
