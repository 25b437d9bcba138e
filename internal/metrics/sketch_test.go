package metrics

import (
	"math"
	"sort"
	"testing"

	"versaslot/internal/fabric"
	"versaslot/internal/sim"
)

func fabricCap() fabric.ResVec { return fabric.ResVec{LUT: 100, FF: 200} }

// rankOf returns the fractional rank of v in sorted (the share of
// samples at or below v).
func rankOf(sorted []int64, v int64) float64 {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return float64(i) / float64(len(sorted))
}

// distributions the rank-error bound is checked against: smooth
// (uniform, exponential), multi-modal, and the paper's bursty MMPP
// regime (two Poisson rates with abrupt phase switches).
func sketchTestDistributions() map[string]func(r *sim.RNG, n int) []int64 {
	return map[string]func(r *sim.RNG, n int) []int64{
		"uniform": func(r *sim.RNG, n int) []int64 {
			out := make([]int64, n)
			for i := range out {
				out[i] = int64(1e6 + r.Float64()*9e8)
			}
			return out
		},
		"exponential": func(r *sim.RNG, n int) []int64 {
			out := make([]int64, n)
			for i := range out {
				out[i] = int64(-math.Log(1-r.Float64()) * 5e7)
			}
			return out
		},
		"bimodal": func(r *sim.RNG, n int) []int64 {
			out := make([]int64, n)
			for i := range out {
				mode := 2e7 + r.Float64()*1e7
				if r.Float64() < 0.3 {
					mode = 6e8 + r.Float64()*2e8
				}
				out[i] = int64(mode)
			}
			return out
		},
		"mmpp-bursty": func(r *sim.RNG, n int) []int64 {
			// Two-phase MMPP service proxy: calm phase draws short
			// exponential response times, burst phase 20x longer ones;
			// phases flip with probability 0.02 per draw.
			out := make([]int64, n)
			burst := false
			for i := range out {
				if r.Float64() < 0.02 {
					burst = !burst
				}
				mean := 2e7
				if burst {
					mean = 4e8
				}
				out[i] = int64(-math.Log(1-r.Float64()) * mean)
			}
			return out
		},
	}
}

// TestSketchRankError pins the documented accuracy claim: at
// P50/P95/P99 the sketch's estimate has rank error at most 1% versus
// the exact sorted sample, across qualitatively different
// distributions.
func TestSketchRankError(t *testing.T) {
	const n = 20000
	for name, gen := range sketchTestDistributions() {
		t.Run(name, func(t *testing.T) {
			vals := gen(sim.NewRNG(42), n)
			s := NewSketch(GlobalSketchBits)
			for _, v := range vals {
				s.Add(v)
			}
			sorted := append([]int64(nil), vals...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for _, p := range []float64{50, 95, 99} {
				est := s.Quantile(p)
				r := rankOf(sorted, est)
				if err := math.Abs(r - p/100); err > 0.01 {
					t.Errorf("P%.0f estimate %d has rank %.4f (rank error %.4f > 0.01)", p, est, r, err)
				}
			}
			// The relative value bound holds against the exact
			// percentile too (smooth distributions, large n).
			exact := make([]float64, n)
			for i, v := range sorted {
				exact[i] = float64(v)
			}
			for _, p := range []float64{50, 95, 99} {
				want := Percentile(exact, p)
				got := float64(s.Quantile(p))
				if want > 0 {
					if rel := math.Abs(got-want) / want; rel > 0.02 {
						t.Errorf("P%.0f = %.0f, exact %.0f (relative error %.4f)", p, got, want, rel)
					}
				}
			}
		})
	}
}

// TestSketchQuantileSparseTail pins the relative value bound against
// the exact percentile where adjacent samples sit in different buckets
// (small n, wide spread): Quantile interpolates between the two
// samples bracketing the target rank, as Percentile does. LowerQuantile
// stays in the bucket of the lower one.
func TestSketchQuantileSparseTail(t *testing.T) {
	const n = 37
	bound := math.Ldexp(1, -GlobalSketchBits)
	for name, gen := range sketchTestDistributions() {
		t.Run(name, func(t *testing.T) {
			vals := gen(sim.NewRNG(7), n)
			s := NewSketch(GlobalSketchBits)
			exact := make([]float64, n)
			for i, v := range vals {
				s.Add(v)
				exact[i] = float64(v)
			}
			sort.Float64s(exact)
			for p := 1.0; p < 100; p++ {
				want := Percentile(exact, p)
				if got := float64(s.Quantile(p)); math.Abs(got-want) > bound*want+1 {
					t.Errorf("P%.0f = %.0f, exact %.0f (relative error %.4f > %.4f)",
						p, got, want, math.Abs(got-want)/want, bound)
				}
				below := exact[int(p/100*(n-1))]
				if got := float64(s.LowerQuantile(p)); math.Abs(got-below) > bound*below+1 {
					t.Errorf("lower P%.0f = %.0f, lower bracketing sample %.0f", p, got, below)
				}
			}
		})
	}
}

// TestSketchExactExtremes pins that count, sum, min and max are exact
// regardless of bucketing.
func TestSketchExactExtremes(t *testing.T) {
	s := NewSketch(GlobalSketchBits)
	vals := []int64{5, 1e9, 37, 123456789, 5, 0}
	var sum float64
	for _, v := range vals {
		s.Add(v)
		sum += float64(v)
	}
	if s.Count() != uint64(len(vals)) {
		t.Errorf("count %d, want %d", s.Count(), len(vals))
	}
	if s.Min() != 0 || s.Max() != 1e9 {
		t.Errorf("min/max %d/%d, want 0/1000000000", s.Min(), s.Max())
	}
	if s.Sum() != sum {
		t.Errorf("sum %f, want %f", s.Sum(), sum)
	}
	if got := s.Quantile(0); got != 0 {
		t.Errorf("P0 = %d, want the exact min", got)
	}
	if got := s.Quantile(100); got != 1e9 {
		t.Errorf("P100 = %d, want the exact max", got)
	}
}

// TestSketchMergeAssociative pins the property the sharded farm path
// depends on: merging per-shard sketches in any grouping yields
// identical bucket counts, hence identical quantiles — (A+B)+C equals
// A+(B+C) equals one sketch fed everything.
func TestSketchMergeAssociative(t *testing.T) {
	gen := sketchTestDistributions()["mmpp-bursty"]
	parts := [][]int64{
		gen(sim.NewRNG(1), 3000),
		gen(sim.NewRNG(2), 5000),
		gen(sim.NewRNG(3), 700),
	}
	build := func(vals []int64) *Sketch {
		s := NewSketch(GlobalSketchBits)
		for _, v := range vals {
			s.Add(v)
		}
		return s
	}
	a, b, c := build(parts[0]), build(parts[1]), build(parts[2])

	left := NewSketch(GlobalSketchBits) // (A+B)+C
	left.Merge(a)
	left.Merge(b)
	left.Merge(c)

	bc := NewSketch(GlobalSketchBits) // A+(B+C)
	bc.Merge(b)
	bc.Merge(c)
	right := NewSketch(GlobalSketchBits)
	right.Merge(a)
	right.Merge(bc)

	flat := NewSketch(GlobalSketchBits) // everything into one sketch
	for _, part := range parts {
		for _, v := range part {
			flat.Add(v)
		}
	}

	for _, other := range []*Sketch{right, flat} {
		if left.Count() != other.Count() || left.Min() != other.Min() || left.Max() != other.Max() {
			t.Fatalf("merge groupings disagree on count/min/max")
		}
		for _, p := range []float64{0, 10, 50, 90, 95, 99, 100} {
			if left.Quantile(p) != other.Quantile(p) {
				t.Errorf("P%.0f differs across merge groupings: %d vs %d", p, left.Quantile(p), other.Quantile(p))
			}
		}
	}
}

// TestSketchFlatMemory pins the O(1)-memory claim directly: feeding
// 100x more observations from the same value range must not grow the
// sketch's bucket storage at all.
func TestSketchFlatMemory(t *testing.T) {
	gen := sketchTestDistributions()["exponential"]
	small := NewSketch(GlobalSketchBits)
	for _, v := range gen(sim.NewRNG(7), 10000) {
		small.Add(v)
	}
	footprint := small.MemoryFootprint()
	big := NewSketch(GlobalSketchBits)
	for _, v := range gen(sim.NewRNG(7), 1000000) {
		big.Add(v)
	}
	if big.MemoryFootprint() > footprint*2 {
		t.Errorf("footprint grew from %dB to %dB over 100x more samples", footprint, big.MemoryFootprint())
	}
	if big.MemoryFootprint() > 64*1024 {
		t.Errorf("footprint %dB exceeds the documented ~58KiB worst case", big.MemoryFootprint())
	}
}

// TestStreamIngestZeroAlloc is the steady-state regression gate: once
// the sketch's range and the window ring are warm, folding a sample
// into a streaming collector must not allocate.
func TestStreamIngestZeroAlloc(t *testing.T) {
	c := NewCollector(fabricCap())
	c.EnableStreaming(StreamConfig{Window: sim.Second, MaxWindows: 16})
	r := sim.NewRNG(9)
	sample := func(i int) ResponseSample {
		rt := sim.Duration(1e6 + r.Float64()*5e8)
		fin := sim.Time(i) * sim.Time(120*sim.Millisecond)
		return ResponseSample{AppID: i, Spec: "AN", Batch: 4, Arrival: fin - sim.Time(rt), Finish: fin, Response: rt, QueueDelay: rt / 10}
	}
	// Warm-up: cover the value range and cycle the ring through
	// rollover so every slot's sketch storage exists.
	for i := 0; i < 1000; i++ {
		c.RecordResponse(sample(i))
	}
	i := 1000
	allocs := testing.AllocsPerRun(5000, func() {
		c.RecordResponse(sample(i))
		i++
	})
	if allocs != 0 {
		t.Errorf("warm streaming ingest allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestStreamWindowsRollover pins rollover semantics: a horizon far
// longer than Window*MaxWindows retains exactly the newest MaxWindows
// windows while the run-level sketch keeps every sample.
func TestStreamWindowsRollover(t *testing.T) {
	c := NewCollector(fabricCap())
	c.EnableStreaming(StreamConfig{Window: sim.Second, MaxWindows: 8})
	const total = 100
	for i := 0; i < total; i++ {
		fin := sim.Time(i) * sim.Time(sim.Second) // one app per window
		c.RecordResponse(ResponseSample{AppID: i, Spec: "AN", Finish: fin, Response: sim.Millisecond})
	}
	ws := c.Windows()
	if len(ws) != 8 {
		t.Fatalf("retained %d windows, want 8", len(ws))
	}
	if ws[0].Index != total-8 || ws[len(ws)-1].Index != total-1 {
		t.Errorf("retained windows [%d, %d], want [%d, %d]", ws[0].Index, ws[len(ws)-1].Index, total-8, total-1)
	}
	if got := c.Summarize().Apps; got != total {
		t.Errorf("run-level sketch has %d apps after rollover, want %d", got, total)
	}
	if fp := c.StreamFootprint(); fp > 128*1024 {
		t.Errorf("stream footprint %dB after rollover, want bounded", fp)
	}
}

// TestStreamSummaryMatchesExact feeds the same samples to an exact and
// a streaming collector: mean/min/max/queue must match exactly, the
// percentiles within the sketch's documented relative bound.
func TestStreamSummaryMatchesExact(t *testing.T) {
	gen := sketchTestDistributions()["bimodal"]
	vals := gen(sim.NewRNG(11), 20000)
	exact := NewCollector(fabricCap())
	stream := NewCollector(fabricCap())
	stream.EnableStreaming(StreamConfig{Window: sim.Second, MaxWindows: 32})
	for i, v := range vals {
		s := ResponseSample{AppID: i, Spec: "AN", Finish: sim.Time(i * 1e6), Response: sim.Duration(v), QueueDelay: sim.Duration(v / 7)}
		exact.RecordResponse(s)
		stream.RecordResponse(s)
	}
	es, ss := exact.Summarize(), stream.Summarize()
	if es.Apps != ss.Apps || es.MeanRT != ss.MeanRT || es.MinRT != ss.MinRT || es.MaxRT != ss.MaxRT || es.MeanQueue != ss.MeanQueue {
		t.Errorf("exact-tracked stats diverged: exact %+v stream %+v", es, ss)
	}
	for _, q := range []struct {
		name   string
		ex, st sim.Duration
	}{{"P50", es.P50, ss.P50}, {"P95", es.P95, ss.P95}, {"P99", es.P99, ss.P99}} {
		rel := math.Abs(float64(q.st-q.ex)) / float64(q.ex)
		if rel > 0.01 {
			t.Errorf("%s: stream %v vs exact %v (relative error %.4f > 0.01)", q.name, q.st, q.ex, rel)
		}
	}
	if len(stream.BySpec()) != 1 || stream.BySpec()[0].Count != len(vals) {
		t.Errorf("stream BySpec lost samples: %+v", stream.BySpec())
	}
}
