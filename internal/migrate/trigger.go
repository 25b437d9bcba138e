package migrate

import "fmt"

// Mode indexes the two platforms of a switching pair: Base is the
// start configuration (the paper's Only.Little board), Boost the
// configuration the trigger switches to under sustained contention
// (the Big.Little board). The indices are stable across platform
// assignments, so traces serialize identically whatever platforms a
// pair runs.
type Mode int

const (
	// Base is the pair's start platform.
	Base Mode = iota
	// Boost is the pair's contention platform.
	Boost
)

func (m Mode) String() string {
	switch m {
	case Base:
		return "base"
	case Boost:
		return "boost"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Other returns the opposite mode.
func (m Mode) Other() Mode {
	if m == Base {
		return Boost
	}
	return Base
}

// Decision is what the switching loop asks for after an update.
type Decision int

const (
	// Stay: no action.
	Stay Decision = iota
	// Prewarm: D_switch entered the buffer zone moving toward a
	// threshold; pre-configure the anticipated target board.
	Prewarm
	// Switch: a threshold was crossed; migrate live workload.
	Switch
)

func (d Decision) String() string {
	switch d {
	case Stay:
		return "stay"
	case Prewarm:
		return "prewarm"
	case Switch:
		return "switch"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Trigger is the Schmitt-trigger switching loop of Fig. 4: rising
// D_switch past T1 (ThresholdUp) flips Base -> Boost (the paper's
// Only.Little -> Big.Little); falling past T2 (ThresholdDown) flips
// back. The [T2, T1] band is the buffer zone that prevents
// oscillation; entering it pre-warms the anticipated configuration.
type Trigger struct {
	// ThresholdUp is T_{Base -> Boost} (paper: 0.1).
	ThresholdUp float64
	// ThresholdDown is T_{Boost -> Base} (paper: 0.0125).
	ThresholdDown float64

	mode Mode
	last float64
}

// NewTrigger returns a trigger starting in mode with the paper's
// thresholds unless overridden.
func NewTrigger(mode Mode, up, down float64) *Trigger {
	t := new(Trigger)
	t.Init(mode, up, down)
	return t
}

// Init makes t, in place, a trigger starting in mode, so owners can
// hold triggers inline.
func (t *Trigger) Init(mode Mode, up, down float64) {
	if up <= down {
		panic("migrate: ThresholdUp must exceed ThresholdDown")
	}
	if mode != Base && mode != Boost {
		panic("migrate: trigger mode must be Base or Boost")
	}
	*t = Trigger{ThresholdUp: up, ThresholdDown: down, mode: mode}
}

// DefaultThresholdUp and DefaultThresholdDown are the values of Fig. 8.
const (
	DefaultThresholdUp   = 0.1
	DefaultThresholdDown = 0.0125
)

// Mode returns the configuration the trigger currently calls for.
func (t *Trigger) Mode() Mode { return t.mode }

// Last returns the most recent D_switch observation.
func (t *Trigger) Last() float64 { return t.last }

// SetMode puts the trigger in mode m without observing a sample: a
// switch the pair refused leaves the trigger where the pair still is.
func (t *Trigger) SetMode(m Mode) { t.mode = m }

// Target returns the configuration a Switch (or Prewarm) decision aims
// at: the opposite of the current mode.
func (t *Trigger) Target() Mode { return t.mode.Other() }

// Observe feeds one D_switch sample and returns the decision. On
// Switch, the trigger's mode flips to Target's value.
func (t *Trigger) Observe(d float64) Decision {
	prev := t.last
	t.last = d
	switch t.mode {
	case Base:
		if d >= t.ThresholdUp {
			t.mode = Boost
			return Switch
		}
		// Buffer zone, rising toward T1: anticipate the boost platform.
		if d > t.ThresholdDown && d > prev {
			return Prewarm
		}
	case Boost:
		if d <= t.ThresholdDown {
			t.mode = Base
			return Switch
		}
		// Buffer zone, falling toward T2: anticipate the base platform.
		if d < t.ThresholdUp && d < prev {
			return Prewarm
		}
	}
	return Stay
}
