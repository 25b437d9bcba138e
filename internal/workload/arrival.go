package workload

import (
	"encoding/json"
	"fmt"
	"strings"

	"versaslot/internal/registry"
	"versaslot/internal/sim"
)

// ArrivalProcess generates the arrival instants of a workload
// sequence. Times returns the first n arrival offsets from sequence
// start, in non-decreasing order, drawn deterministically from rng:
// the same rng state and n always yield the same offsets. A process
// holds only configuration, never draw state, so one built process may
// generate many sequences.
type ArrivalProcess interface {
	Times(rng *sim.RNG, n int) ([]sim.Duration, error)
}

// ArrivalSpec is the JSON-round-trippable description of an arrival
// process: a registered process name plus the union of every built-in
// process's parameters (unused fields stay zero and are omitted from
// JSON). Durations are nanoseconds in JSON, like every other duration
// in a Scenario.
//
// Zero-valued core parameters (Lo/Hi, Mean, think bounds, MMPP and
// diurnal shape) are filled from a congestion Condition by
// WithCondition, so a bare {"process": "mmpp"} inherits the
// scenario's regime.
type ArrivalSpec struct {
	// Process is the registered process name (see ArrivalNames).
	Process string `json:"process"`

	// Lo/Hi bound the uniform inter-arrival draw ("uniform").
	Lo sim.Duration `json:"lo,omitempty"`
	Hi sim.Duration `json:"hi,omitempty"`

	// Mean is the mean inter-arrival time ("poisson", "diurnal").
	Mean sim.Duration `json:"mean,omitempty"`

	// BurstMean/CalmMean are the per-state mean inter-arrival times of
	// the 2-state MMPP; BurstDwell/CalmDwell are the mean state
	// holding times ("mmpp").
	BurstMean  sim.Duration `json:"burst_mean,omitempty"`
	CalmMean   sim.Duration `json:"calm_mean,omitempty"`
	BurstDwell sim.Duration `json:"burst_dwell,omitempty"`
	CalmDwell  sim.Duration `json:"calm_dwell,omitempty"`

	// Period and Amplitude shape the sinusoidal rate of "diurnal":
	// rate(t) = (1/Mean) * (1 + Amplitude*sin(2*pi*t/Period)),
	// 0 < Amplitude < 1 (a flat rate is the poisson process).
	Period    sim.Duration `json:"period,omitempty"`
	Amplitude float64      `json:"amplitude,omitempty"`

	// Phases is the piecewise schedule of "phased": each phase runs
	// its own process for Duration of virtual time; the final phase
	// may be unbounded (Duration 0).
	Phases []ArrivalPhase `json:"phases,omitempty"`

	// Clients and ThinkLo/ThinkHi configure "closed-loop": Clients
	// concurrent tenants each submit, think for a uniform
	// [ThinkLo, ThinkHi] spell, and submit again.
	Clients int          `json:"clients,omitempty"`
	ThinkLo sim.Duration `json:"think_lo,omitempty"`
	ThinkHi sim.Duration `json:"think_hi,omitempty"`

	// File is the arrival-trace path of "trace": JSONL or CSV,
	// resolved relative to the working directory (the suite command
	// resolves it relative to the scenario file).
	File string `json:"file,omitempty"`
}

// ArrivalPhase is one segment of a phased schedule: an embedded spec
// plus the virtual-time span it covers. A phase begins with its
// process's first arrival exactly at the phase start; arrivals at or
// past the phase end belong to the next phase (the span is
// half-open, [start, start+Duration)). Duration 0 marks the final,
// unbounded phase.
type ArrivalPhase struct {
	ArrivalSpec
	Duration sim.Duration `json:"duration,omitempty"`
}

// ArrivalReg declares one registered arrival process: its canonical
// name, aliases, display title, and a builder that validates a spec
// and returns a ready process.
type ArrivalReg struct {
	// Name is the canonical lower-case lookup key ("mmpp").
	Name string
	// Aliases are alternate lookup keys ("burst").
	Aliases []string
	// Title is the display name ("2-state MMPP bursts").
	Title string
	// Build validates spec's parameters and constructs the process.
	Build func(spec ArrivalSpec) (ArrivalProcess, error)
}

// arrivals is the process registry; like the policy and dispatcher
// registries it is backed by the shared internal/registry helper.
var arrivals = registry.New[*ArrivalReg]("workload")

// RegisterArrival adds an arrival process to the registry. The name
// (and every alias) must be non-empty and not already taken; Build
// must be non-nil.
func RegisterArrival(r ArrivalReg) error {
	if r.Name == "" {
		return fmt.Errorf("workload: register arrival: empty name")
	}
	if r.Build == nil {
		return fmt.Errorf("workload: register arrival %q: nil Build", r.Name)
	}
	if r.Title == "" {
		r.Title = r.Name
	}
	reg := r
	return arrivals.Register(r.Name, &reg, r.Aliases...)
}

// MustRegisterArrival is RegisterArrival, panicking on error; for
// init-time use.
func MustRegisterArrival(r ArrivalReg) {
	if err := RegisterArrival(r); err != nil {
		panic(err)
	}
}

// LookupArrival resolves an arrival process by name or alias
// (case-insensitive).
func LookupArrival(name string) (*ArrivalReg, bool) { return arrivals.Lookup(name) }

// ArrivalNames lists canonical arrival-process names in registration
// order (built-ins first).
func ArrivalNames() []string { return arrivals.Names() }

// Build resolves the spec's process from the registry and constructs
// it, validating all parameters. Trace files are opened lazily at
// generation time, so Build succeeds for a trace spec whose file does
// not exist yet.
func (s ArrivalSpec) Build() (ArrivalProcess, error) {
	if s.Process == "" {
		return nil, fmt.Errorf("workload: arrival spec has no process name (registered: %v)", ArrivalNames())
	}
	reg, ok := LookupArrival(s.Process)
	if !ok {
		return nil, fmt.Errorf("workload: unknown arrival process %q (registered: %v)", s.Process, ArrivalNames())
	}
	return reg.Build(s)
}

// Validate builds the spec and discards the result, reporting
// parameter errors without generating anything.
func (s ArrivalSpec) Validate() error {
	_, err := s.Build()
	return err
}

// Key returns the canonical serialized form of the spec, used to key
// the Runner's shared-sequence cache: two specs with equal keys
// generate identical arrival streams for the same seed.
func (s ArrivalSpec) Key() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec fields are plain values; Marshal cannot fail.
		panic(fmt.Sprintf("workload: marshal arrival spec: %v", err))
	}
	return string(b)
}

// ParseArrivalSpec decodes an arrival spec from strict JSON (unknown
// fields rejected, matching scenario decoding) — the shared parser
// behind the -arrival-json CLI flags.
func ParseArrivalSpec(js string) (ArrivalSpec, error) {
	var spec ArrivalSpec
	dec := json.NewDecoder(strings.NewReader(js))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return ArrivalSpec{}, fmt.Errorf("workload: decode arrival spec: %w", err)
	}
	return spec, nil
}

// ResolvePaths returns a copy of the spec with every relative trace
// path — the top-level File and any phase's — joined onto dir.
// LoadScenario uses it so catalog entries resolve against the
// scenario file's directory.
func (s ArrivalSpec) ResolvePaths(join func(string) string) ArrivalSpec {
	if s.File != "" {
		s.File = join(s.File)
	}
	if len(s.Phases) > 0 {
		phases := make([]ArrivalPhase, len(s.Phases))
		copy(phases, s.Phases)
		for i := range phases {
			phases[i].ArrivalSpec = phases[i].ArrivalSpec.ResolvePaths(join)
		}
		s.Phases = phases
	}
	return s
}

// WithCondition fills the spec's zero-valued rate parameters from a
// congestion condition, so a spec naming only a process inherits the
// scenario's regime: Lo/Hi default to the condition's interval, Mean
// and the think bounds to its midpoint-derived values, and the MMPP
// states to a burst 4x faster and a calm 2x slower than the regime,
// dwelling ~8 arrivals per visit. Phased sub-specs are filled
// recursively.
func (s ArrivalSpec) WithCondition(c Condition) ArrivalSpec {
	lo, hi := c.Interval()
	mean := (lo + hi) / 2
	if s.Lo == 0 && s.Hi == 0 {
		s.Lo, s.Hi = lo, hi
	}
	if s.Mean == 0 {
		s.Mean = mean
	}
	if s.BurstMean == 0 {
		s.BurstMean = mean / 4
	}
	if s.CalmMean == 0 {
		s.CalmMean = 2 * mean
	}
	if s.BurstDwell == 0 {
		s.BurstDwell = 8 * s.BurstMean
	}
	if s.CalmDwell == 0 {
		s.CalmDwell = 8 * s.CalmMean
	}
	if s.Period == 0 {
		s.Period = 50 * mean
	}
	if s.Amplitude == 0 {
		s.Amplitude = 0.8
	}
	if s.Clients == 0 {
		s.Clients = 4
	}
	if s.ThinkLo == 0 && s.ThinkHi == 0 {
		s.ThinkLo, s.ThinkHi = lo, hi
	}
	if len(s.Phases) > 0 {
		// Copy before filling: the receiver is a value, but the slice
		// shares its backing array with the caller's spec.
		phases := make([]ArrivalPhase, len(s.Phases))
		copy(phases, s.Phases)
		for i := range phases {
			phases[i].ArrivalSpec = phases[i].ArrivalSpec.WithCondition(c)
		}
		s.Phases = phases
	}
	return s
}
