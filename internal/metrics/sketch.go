package metrics

import (
	"math"
	"math/bits"
)

// Sketch precisions: the run-level sketch uses 7 sub-bucket bits
// (128 sub-buckets per octave, relative value error <= 2^-7 ~ 0.78%,
// inside the documented 1% bound); per-window sketches trade
// precision for footprint with 5 bits (<= 2^-5 ~ 3.1%), which is
// ample for a time-series panel. Sketches of different precision
// must never be merged; Merge panics on a mismatch.
const (
	GlobalSketchBits = 7
	WindowSketchBits = 5
)

// Sketch is a mergeable HDR-histogram-style percentile sketch over
// non-negative int64 values (response times in nanoseconds). Values
// land in log-linear buckets: below 2^(bits+1) every integer has its
// own bucket (exact); above, each octave [2^k, 2^(k+1)) splits into
// 2^bits equal sub-buckets, so a bucket's width over its lower bound
// never exceeds 2^-bits. Quantile therefore returns a value within
// relative error 2^-bits of some sample at the requested rank.
//
// Bucket counts are integers, so Merge is exactly associative and
// commutative on the distribution: merging per-engine sketches in any
// grouping yields identical counts, which is what lets the sharded
// farm path aggregate without shipping samples. Memory is O(1) in the
// number of observations: the bucket range grows only with the spread
// of observed values (at most ~58 KiB at 7 bits) and ingest allocates
// nothing once the observed range is covered.
type Sketch struct {
	bits   uint
	counts []uint64 // bucket counts for indices [base, base+len(counts))
	base   int
	count  uint64
	sum    float64
	min    int64
	max    int64
}

// NewSketch returns an empty sketch with 2^bits sub-buckets per
// octave. bits must be in [1, 16].
func NewSketch(bits uint) *Sketch {
	if bits < 1 || bits > 16 {
		panic("metrics: sketch bits out of range")
	}
	return &Sketch{bits: bits, min: math.MaxInt64}
}

// bucketIndex maps a non-negative value to its bucket. Values below
// 2^(bits+1) map to themselves (the linear region); above, index =
// shift*2^bits + (v >> shift) with shift = floor(log2 v) - bits, which
// tiles the octaves contiguously.
func (s *Sketch) bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	k := 63 - bits.LeadingZeros64(uint64(v)|1)
	shift := k - int(s.bits)
	if shift <= 0 {
		return int(v)
	}
	return shift<<s.bits + int(v>>uint(shift))
}

// bucketBounds returns the lower bound and width of bucket idx.
func (s *Sketch) bucketBounds(idx int) (lo, width int64) {
	sub := 1 << s.bits
	if idx < 2*sub {
		return int64(idx), 1
	}
	shift := uint(idx/sub - 1)
	m := idx - int(shift)*sub
	return int64(m) << shift, int64(1) << shift
}

// ensure grows the bucket range to cover idx. Growth rounds out to
// 64-bucket blocks with headroom so steady-state ingest over a stable
// value range stops allocating after warm-up.
func (s *Sketch) ensure(idx int) {
	const block = 64
	if s.counts == nil {
		base := idx &^ (block - 1)
		s.counts = make([]uint64, block)
		s.base = base
		return
	}
	if idx >= s.base && idx < s.base+len(s.counts) {
		return
	}
	lo, hi := s.base, s.base+len(s.counts)
	if idx < lo {
		lo = idx &^ (block - 1)
	}
	if idx >= hi {
		hi = (idx + block) &^ (block - 1)
	}
	grown := make([]uint64, hi-lo)
	copy(grown[s.base-lo:], s.counts)
	s.counts = grown
	s.base = lo
}

// Add folds one observation into the sketch. Negative values clamp to
// zero. Warm-path cost is one bucket lookup and no allocation.
func (s *Sketch) Add(v int64) {
	if v < 0 {
		v = 0
	}
	idx := s.bucketIndex(v)
	if s.counts == nil || idx < s.base || idx >= s.base+len(s.counts) {
		s.ensure(idx)
	}
	s.counts[idx-s.base]++
	s.count++
	s.sum += float64(v)
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

// Merge folds o's distribution into s. Bucket counts add exactly, so
// merge order and grouping never change the resulting counts.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	if o.bits != s.bits {
		panic("metrics: merging sketches of different precision")
	}
	s.ensure(o.base)
	s.ensure(o.base + len(o.counts) - 1)
	off := o.base - s.base
	for i, c := range o.counts {
		s.counts[off+i] += c
	}
	s.count += o.count
	s.sum += o.sum
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// Reset empties the sketch while keeping its bucket storage, so ring
// windows recycle without reallocating.
func (s *Sketch) Reset() {
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.count = 0
	s.sum = 0
	s.min = math.MaxInt64
	s.max = 0
}

// Count returns the number of observations folded in.
func (s *Sketch) Count() uint64 { return s.count }

// Sum returns the exact sum of observations (as float64; individual
// int64 nanosecond values below 2^53 accumulate exactly until the
// total crosses 2^53).
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the mean observation, 0 when empty.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min and Max return the exact extreme observations (0 when empty).
func (s *Sketch) Min() int64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}
func (s *Sketch) Max() int64 { return s.max }

// Quantile returns an estimate of the p-th percentile (0-100),
// mirroring Percentile's inclusive-interpolation rank convention: the
// target rank is p/100*(count-1), and the estimate interpolates between
// the two samples bracketing it. Each sample is placed in its bucket
// at its position among the bucket's occupants, and the result is
// clamped to the exact [Min, Max], so the relative value error versus
// the exact percentile is at most 2^-bits.
func (s *Sketch) Quantile(p float64) int64 { return s.quantile(p, true) }

// LowerQuantile is Quantile without the step toward the upper
// bracketing sample: the estimate stays in the bucket of the sample at
// the truncated target rank, so it is within 2^-bits of that sample but
// can sit a whole inter-sample gap below the exact percentile at sparse
// tails. The orchestrator's per-tenant P50/P99 still use it, which
// keeps their published values; they move to Quantile in a change that
// updates those values.
func (s *Sketch) LowerQuantile(p float64) int64 { return s.quantile(p, false) }

func (s *Sketch) quantile(p float64, interpolate bool) int64 {
	if s.count == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 100 || s.count == 1 {
		return s.max
	}
	rank := p / 100 * float64(s.count-1)
	var cum uint64
	target := uint64(rank) // index of the lower bracketing sample
	for i, c := range s.counts {
		if cum+c <= target {
			cum += c
			continue
		}
		lo, width := s.bucketBounds(s.base + i)
		if f := rank - float64(target); interpolate && f > 0 && target+1 == cum+c {
			// The upper bracketing sample opens the next occupied
			// bucket: interpolate between the two samples' positions.
			below := float64(lo) + (float64(c)-0.5)/float64(c)*float64(width)
			above := s.firstPosition(i + 1)
			return s.clamp(int64(below + f*(above-below)))
		}
		// Position of the target rank within this bucket's
		// occupants, at bucket-interval resolution.
		frac := (rank - float64(cum) + 0.5) / float64(c)
		if frac > 1 {
			frac = 1
		}
		return s.clamp(lo + int64(frac*float64(width)))
	}
	return s.max
}

// firstPosition returns the estimated position of the smallest sample
// in the first occupied bucket at or after storage index from.
func (s *Sketch) firstPosition(from int) float64 {
	for i := from; i < len(s.counts); i++ {
		if c := s.counts[i]; c > 0 {
			lo, width := s.bucketBounds(s.base + i)
			return float64(lo) + 0.5/float64(c)*float64(width)
		}
	}
	return float64(s.max)
}

// clamp bounds an estimate to the exact [Min, Max].
func (s *Sketch) clamp(v int64) int64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// MemoryFootprint reports the sketch's current heap footprint in
// bytes (bucket storage only) — the flat-memory number the docs and
// the streaming benchmark cite.
func (s *Sketch) MemoryFootprint() int { return len(s.counts) * 8 }
