package pcap

import (
	"versaslot/internal/bitstream"
	"versaslot/internal/sim"
)

// Device is one board's PCAP.
type Device struct {
	// Bandwidth is the sustained configuration throughput in bytes/s.
	// Zynq UltraScale+ PCAP sustains roughly 128 MB/s in practice.
	Bandwidth int64
	// Overhead is the fixed per-load cost: DFX decoupler assertion,
	// PCAP init, and completion check.
	Overhead sim.Duration

	stats Stats
}

// Stats aggregates the device's activity.
type Stats struct {
	Loads        uint64       // completed bitstream loads
	Bytes        int64        // total configuration bytes streamed
	BusyTime     sim.Duration // cumulative transfer time
	WaitTime     sim.Duration // cumulative time requests spent queued
	BlockedLoads uint64       // loads that had to wait behind another PR
}

// New returns a device with the given bandwidth and per-load overhead.
func New(bandwidth int64, overhead sim.Duration) *Device {
	d := new(Device)
	d.Init(bandwidth, overhead)
	return d
}

// Init makes a zero Device, in place, an idle device with the given
// bandwidth and per-load overhead.
func (d *Device) Init(bandwidth int64, overhead sim.Duration) {
	if bandwidth <= 0 {
		panic("pcap: non-positive bandwidth")
	}
	d.Bandwidth, d.Overhead = bandwidth, overhead
}

// LoadDuration returns the time to stream b through the port.
func (d *Device) LoadDuration(b *bitstream.Bitstream) sim.Duration {
	return bitstream.LoadTime(b, d.Bandwidth, d.Overhead)
}

// RecordLoad accounts one completed load and the queueing delay it saw.
func (d *Device) RecordLoad(b *bitstream.Bitstream, transfer, wait sim.Duration) {
	d.stats.Loads++
	d.stats.Bytes += b.Bytes
	d.stats.BusyTime += transfer
	d.stats.WaitTime += wait
	if wait > 0 {
		d.stats.BlockedLoads++
	}
}

// Stats returns a copy of the accumulated statistics.
func (d *Device) Stats() Stats { return d.stats }
