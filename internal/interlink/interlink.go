package interlink

import (
	"versaslot/internal/sim"
)

// Link is a point-to-point Aurora channel between two boards. A link
// must not be copied once initialized: its server's completion events
// point at it.
type Link struct {
	_ noCopy

	// BandwidthBytes is the effective payload bandwidth in bytes/s.
	BandwidthBytes int64
	// Setup is the fixed per-transfer cost.
	Setup sim.Duration

	srv sim.Server
	pri int32

	stats Stats
}

// Stats aggregates link activity.
type Stats struct {
	Transfers uint64
	Bytes     int64
	BusyTime  sim.Duration
}

// DefaultBandwidth is one GT lane of Aurora 64B66B: 10.3125 Gb/s line
// rate * ~0.97 framing efficiency / 8 bits.
const DefaultBandwidth = int64(1.25e9 * 0.97)

// DefaultSetup covers DMA descriptor programming and channel handshake.
const DefaultSetup = 60 * sim.Microsecond

// noCopy makes go vet's copylocks check flag a copied Link.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// New returns a link served by kernel k.
func New(k *sim.Kernel, name string, bandwidthBytes int64, setup sim.Duration) *Link {
	l := new(Link)
	l.Init(k, name, bandwidthBytes, setup)
	return l
}

// Init makes l, in place, an idle link served by kernel k, so owners
// can hold links inline.
func (l *Link) Init(k *sim.Kernel, name string, bandwidthBytes int64, setup sim.Duration) {
	if bandwidthBytes <= 0 {
		panic("interlink: non-positive bandwidth")
	}
	*l = Link{BandwidthBytes: bandwidthBytes, Setup: setup}
	l.srv.Init(k, name)
}

// NewDefault returns a link with the Aurora defaults.
func NewDefault(k *sim.Kernel, name string) *Link {
	return New(k, name, DefaultBandwidth, DefaultSetup)
}

// SetPriority assigns the event priority of the link's completions:
// transfers landing at the same instant as other events order by it.
// The farm sets its rack link to sim.PriFarmControl so deliveries
// sort with the rest of the control plane, ahead of pair events.
func (l *Link) SetPriority(p int32) {
	l.pri = p
	l.srv.SetPriority(p)
}

// Priority returns the link's completion priority.
func (l *Link) Priority() int32 { return l.pri }

// TransferTime returns the service time for a payload.
func (l *Link) TransferTime(bytes int64) sim.Duration {
	return l.Setup + sim.Duration(float64(bytes)/float64(l.BandwidthBytes)*float64(sim.Second))
}

// Transfer queues a DMA transfer of bytes and calls done at delivery.
// Transfers serialize on the link (one DMA stream per direction pair).
func (l *Link) Transfer(name string, bytes int64, done func()) {
	cost := l.TransferTime(bytes)
	l.stats.Transfers++
	l.stats.Bytes += bytes
	l.stats.BusyTime += cost
	l.srv.SubmitFunc(name, "dma", cost, done)
}

// Stats returns a copy of the accumulated statistics.
func (l *Link) Stats() Stats { return l.stats }
