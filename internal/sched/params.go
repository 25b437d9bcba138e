package sched

import (
	"bytes"
	"encoding/json"
	"fmt"

	"versaslot/internal/sim"
)

// Params collects every timing constant of the hardware and control
// plane models. Defaults are documented with their provenance: device
// datasheet scale, values the paper reports, or calibration targets
// that reproduce the paper's figure shapes.
type Params struct {
	// PCAPBandwidth is the sustained PCAP configuration throughput in
	// bytes/s. Zynq UltraScale+ sustains ~128 MB/s through PCAP.
	PCAPBandwidth int64
	// PCAPOverhead is the fixed per-load cost: DFX decouple, PCAP init,
	// completion check.
	PCAPOverhead sim.Duration
	// SDBandwidth is the SD-card streaming rate in bytes/s for
	// bitstreams missing the DDR cache (~25 MB/s for a class-10 card
	// through the PS SDIO controller).
	SDBandwidth int64
	// CacheEntries bounds the PR server's DDR bitstream cache.
	CacheEntries int
	// FullReconfigInit is the extra cost of a full-fabric swap beyond
	// the bitstream transfer: PS-PL bridge re-init, clock/DDR
	// recalibration, and shell driver re-probe. Full-FPGA platforms
	// (e.g. AWS F1 AFI swaps) pay on the order of seconds.
	FullReconfigInit sim.Duration
	// FullBitstreamCached: full-fabric bitstreams are far larger than
	// the DDR staging area, so by default they re-stream from storage
	// on every swap.
	FullBitstreamCached bool

	// SchedPassCost is the CPU time of one scheduler pass.
	SchedPassCost sim.Duration
	// LaunchCost is the CPU time to launch one batch item: buffer
	// allocation, DMA descriptor setup, control-register writes.
	LaunchCost sim.Duration
	// HostControl models boards without a dedicated CPU: "the
	// hypervisor can run on the host CPU and control the FPGA via the
	// PCIe interface" (Section III-A). Every control operation (pass,
	// launch, PR command) then pays a PCIe round trip.
	HostControl bool
	// PCIeRoundTrip is that control-path latency (MMIO write + read
	// back over Gen3 x8, ~1-2 us each way plus driver overhead).
	PCIeRoundTrip sim.Duration

	// BaselineQuantum is the exclusive baseline's time slice: how long
	// one application owns the whole fabric before a full-reconfig
	// context switch hands it to the next queued app.
	BaselineQuantum sim.Duration
	// BaselineRunset bounds how many queued applications the baseline
	// round-robins among; arrivals beyond it wait FCFS.
	BaselineRunset int
	// RRQuantum is the Coyote-style round-robin time slice.
	RRQuantum sim.Duration
	// GangMaxSlots caps FCFS/RR gang allocations: naive systems
	// partition the fabric into at most this many regions per app.
	GangMaxSlots int
	// TenantTeardown is the cleanup FCFS/RR perform after a tenant
	// finishes (buffer scrubbing, DMA/shell reset for isolation) before
	// its slots are reusable. Invisible to a lone application, pure
	// added service time under congestion.
	TenantTeardown sim.Duration
	// PreemptAge is how long an allocation-starved app must wait before
	// the Nimblock-style preemption fires.
	PreemptAge sim.Duration
	// PreemptMinRemaining stops preemption from thrashing apps that are
	// nearly done: victims must still owe at least this many items.
	PreemptMinRemaining int

	// MaxSlotsPerApp caps any single allocation (the ILP never needs
	// more slots than stages anyway).
	MaxSlotsPerApp int
}

// DefaultParams returns the calibrated configuration used by every
// experiment in EXPERIMENTS.md.
func DefaultParams() Params {
	return Params{
		PCAPBandwidth:       200 << 20,
		PCAPOverhead:        80 * sim.Microsecond,
		SDBandwidth:         80 << 20,
		CacheEntries:        64,
		FullReconfigInit:    400 * sim.Millisecond,
		FullBitstreamCached: true,

		SchedPassCost: 20 * sim.Microsecond,
		LaunchCost:    120 * sim.Microsecond,
		HostControl:   false,
		PCIeRoundTrip: 12 * sim.Microsecond,

		BaselineQuantum:     420 * sim.Millisecond,
		BaselineRunset:      4,
		RRQuantum:           2 * sim.Second,
		GangMaxSlots:        8,
		TenantTeardown:      500 * sim.Millisecond,
		PreemptAge:          2 * sim.Second,
		PreemptMinRemaining: 8,

		MaxSlotsPerApp: 8,
	}
}

// EffectiveSchedPass returns the scheduler-pass cost including the
// PCIe control path when the hypervisor runs on the host CPU.
func (p Params) EffectiveSchedPass() sim.Duration {
	if p.HostControl {
		return p.SchedPassCost + p.PCIeRoundTrip
	}
	return p.SchedPassCost
}

// EffectiveLaunch returns the per-item launch cost including the PCIe
// control path when the hypervisor runs on the host CPU.
func (p Params) EffectiveLaunch() sim.Duration {
	if p.HostControl {
		return p.LaunchCost + p.PCIeRoundTrip
	}
	return p.LaunchCost
}

// UnmarshalJSON decodes a params block over DefaultParams, so a block
// names only the constants it changes, and rejects unknown fields.
func (p *Params) UnmarshalJSON(b []byte) error {
	type plain Params
	v := plain(DefaultParams())
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return err
	}
	*p = Params(v)
	return nil
}

// Validate reports the first constant no model can run with: a
// bandwidth that is not positive, or a negative cost, duration, cache
// size or count.
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{{"PCAPBandwidth", p.PCAPBandwidth}, {"SDBandwidth", p.SDBandwidth}} {
		if f.v <= 0 {
			return fmt.Errorf("sched: params %s must be positive, got %d", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    sim.Duration
	}{
		{"PCAPOverhead", p.PCAPOverhead}, {"FullReconfigInit", p.FullReconfigInit},
		{"SchedPassCost", p.SchedPassCost}, {"LaunchCost", p.LaunchCost},
		{"PCIeRoundTrip", p.PCIeRoundTrip}, {"BaselineQuantum", p.BaselineQuantum},
		{"RRQuantum", p.RRQuantum}, {"TenantTeardown", p.TenantTeardown},
		{"PreemptAge", p.PreemptAge},
	} {
		if f.v < 0 {
			return fmt.Errorf("sched: params %s must not be negative, got %v", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"CacheEntries", p.CacheEntries}, {"BaselineRunset", p.BaselineRunset},
		{"GangMaxSlots", p.GangMaxSlots}, {"PreemptMinRemaining", p.PreemptMinRemaining},
		{"MaxSlotsPerApp", p.MaxSlotsPerApp},
	} {
		if f.v < 0 {
			return fmt.Errorf("sched: params %s must not be negative, got %d", f.name, f.v)
		}
	}
	return nil
}
