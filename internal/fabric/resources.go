package fabric

import (
	"fmt"
	"math"
)

// ResVec is a vector of FPGA resource counts. All slot capacities and
// task footprints are expressed as ResVecs.
type ResVec struct {
	LUT  int // look-up tables
	FF   int // flip-flops
	DSP  int // DSP48 blocks
	BRAM int // block-RAM tiles (36Kb)
}

// Add returns r + o componentwise.
func (r ResVec) Add(o ResVec) ResVec {
	return ResVec{r.LUT + o.LUT, r.FF + o.FF, r.DSP + o.DSP, r.BRAM + o.BRAM}
}

// Sub returns r - o componentwise.
func (r ResVec) Sub(o ResVec) ResVec {
	return ResVec{r.LUT - o.LUT, r.FF - o.FF, r.DSP - o.DSP, r.BRAM - o.BRAM}
}

// Scale returns r scaled by f, rounding to nearest (math.Round
// semantics: halves away from zero, negatives round toward zero
// magnitude — the old int(x+0.5) truncation rounded negative products
// toward +infinity).
func (r ResVec) Scale(f float64) ResVec {
	round := func(x int) int { return int(math.Round(float64(x) * f)) }
	return ResVec{round(r.LUT), round(r.FF), round(r.DSP), round(r.BRAM)}
}

// FitsIn reports whether every component of r is <= the corresponding
// component of capacity.
func (r ResVec) FitsIn(capacity ResVec) bool {
	return r.LUT <= capacity.LUT && r.FF <= capacity.FF &&
		r.DSP <= capacity.DSP && r.BRAM <= capacity.BRAM
}

// NonNegative reports whether all components are >= 0.
func (r ResVec) NonNegative() bool {
	return r.LUT >= 0 && r.FF >= 0 && r.DSP >= 0 && r.BRAM >= 0
}

// IsZero reports whether all components are zero.
func (r ResVec) IsZero() bool { return r == ResVec{} }

// Utilization returns the componentwise ratio used/capacity for LUT and
// FF, the two resources the paper reports. Zero-capacity components
// yield zero utilization.
func (r ResVec) Utilization(capacity ResVec) (lut, ff float64) {
	if capacity.LUT > 0 {
		lut = float64(r.LUT) / float64(capacity.LUT)
	}
	if capacity.FF > 0 {
		ff = float64(r.FF) / float64(capacity.FF)
	}
	return lut, ff
}

// UtilRatios is the componentwise used/capacity breakdown across all
// four tracked resources. The paper reports only LUT/FF; heterogeneous
// platforms make DSP- and BRAM-bound circuits visible, so summaries can
// optionally carry the full vector.
type UtilRatios struct {
	LUT, FF, DSP, BRAM float64
}

// MaxRatio returns the largest used/capacity ratio over all nonzero
// capacity components — the binding constraint when packing.
func (r ResVec) MaxRatio(capacity ResVec) float64 {
	max := 0.0
	ratio := func(u, c int) float64 {
		if c <= 0 {
			return 0
		}
		return float64(u) / float64(c)
	}
	for _, v := range []float64{
		ratio(r.LUT, capacity.LUT),
		ratio(r.FF, capacity.FF),
		ratio(r.DSP, capacity.DSP),
		ratio(r.BRAM, capacity.BRAM),
	} {
		if v > max {
			max = v
		}
	}
	return max
}

func (r ResVec) String() string {
	return fmt.Sprintf("LUT=%d FF=%d DSP=%d BRAM=%d", r.LUT, r.FF, r.DSP, r.BRAM)
}

// ZCU216 device totals (XCZU49DR RFSoC), rounded to the datasheet scale.
// Only the PL fabric matters to the scheduler.
var ZCU216Total = ResVec{LUT: 425_280, FF: 850_560, DSP: 4272, BRAM: 1080}

// LittleSlotCap is the resource capacity of one Little slot. Eight
// Little slots plus the static region tile the ZCU216 fabric; the
// static region keeps roughly 20% for AXI interconnect, slot
// interfaces, DFX decouplers and the cross-board switching module.
var LittleSlotCap = ResVec{LUT: 42_000, FF: 84_000, DSP: 420, BRAM: 104}

// BigSlotCap is exactly twice LittleSlotCap, per the paper ("the
// resource capacity of each Big slot is twice that of a Little slot").
var BigSlotCap = ResVec{
	LUT:  2 * LittleSlotCap.LUT,
	FF:   2 * LittleSlotCap.FF,
	DSP:  2 * LittleSlotCap.DSP,
	BRAM: 2 * LittleSlotCap.BRAM,
}
