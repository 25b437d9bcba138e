package fault

import (
	"encoding/json"
	"fmt"
	"strings"

	"versaslot/internal/cluster"
	"versaslot/internal/migrate"
	"versaslot/internal/registry"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
)

// Target is the topology an injector perturbs: its engines, or the
// switching pairs of a farm. A single board lists its engine in
// Engines and leaves Pairs and Farm nil; pair topologies (cluster and
// farm, a cluster being a farm of one pair) set Pairs and the Farm
// that owns them, and the pairs' boards — each spare built on attach —
// take the place of Engines.
type Target struct {
	K       *sim.Kernel
	Engines []*sched.Engine
	Pairs   []*cluster.Cluster
	Farm    *cluster.Farm

	// Quiescent, when set, reports whether every injected application
	// has finished; farms deliver arrivals lazily and must set it
	// because their engines cannot see pending arrivals. Nil falls back to summing engine UnfinishedCounts,
	// which is exact for the single board (apps register at inject).
	Quiescent func() bool

	// Pri is the event priority of the injector timer chains. The farm
	// runner sets sim.PriFarmControl so fault strikes sort with the
	// rest of the control plane, ahead of pair events at the same
	// instant; the single board leaves it zero.
	Pri int32

	// Touch, when set, stamps a pair's clock to the current control
	// instant before an injector acts on its engines. A farm advances
	// each pair's kernel lazily under conservative lookahead, so every
	// fault strike and recovery must touch its pair first — a slot
	// failure scheduled against a stale pair clock would land in the
	// pair's past. Pair targets set it to Farm.TouchPair; it is nil
	// for the single board, whose engine shares the injector kernel.
	Touch func(pair int)
}

// touch stamps pair's clock to the current control instant (see
// Touch); safe to call with no hook installed or no pair (-1).
func (t *Target) touch(pair int) {
	if t.Touch != nil && pair >= 0 {
		t.Touch(pair)
	}
}

// Done reports whether the workload has drained. Injector timer chains
// gate re-arming on it so fault streams wind down with the workload
// instead of keeping the kernel alive forever.
func (t *Target) Done() bool {
	if t.Quiescent != nil {
		return t.Quiescent()
	}
	for _, e := range t.Engines {
		if e.UnfinishedCount() > 0 {
			return false
		}
	}
	return true
}

// board is one engine with its pair index (-1 for a single board).
type board struct {
	engine *sched.Engine
	pair   int
}

// pairModes mirrors the cluster's fixed board order within a pair.
var pairModes = []migrate.Mode{migrate.Base, migrate.Boost}

// boards flattens the topology into per-board attachment order: pair
// by pair (base board then boost board, building a spare that was not
// built yet), or the bare engine list for a single board.
func (t *Target) boards() []board {
	if len(t.Pairs) == 0 {
		out := make([]board, len(t.Engines))
		for i, e := range t.Engines {
			out[i] = board{engine: e, pair: -1}
		}
		return out
	}
	out := make([]board, 0, 2*len(t.Pairs))
	for i, p := range t.Pairs {
		for _, mode := range pairModes {
			out = append(out, board{engine: p.Engine(mode), pair: i})
		}
	}
	return out
}

// Injector is one attached fault source. Attach installs the
// injector's models and schedules its timer chains on the target's
// kernel; rng is the injector's private stream (see package doc) and
// every draw the injector ever makes must come from it or its forks.
type Injector interface {
	Attach(t *Target, rng *sim.RNG)
}

// InjectorSpec is the JSON-round-trippable description of one
// injector: a registered kind plus the union of every built-in's
// parameters (unused fields stay zero and are omitted from JSON).
// Durations are nanoseconds in JSON, like every other Scenario
// duration.
type InjectorSpec struct {
	// Kind is the registered injector name (see Names).
	Kind string `json:"kind"`

	// MTBF/MTTR are the mean time between failures and mean time to
	// repair of the exponential fail/recover chains ("slot-fail",
	// "board-fail") and of straggle episodes ("straggler": MTBF is the
	// mean time between episodes, MTTR the mean episode length).
	MTBF sim.Duration `json:"mtbf,omitempty"`
	MTTR sim.Duration `json:"mttr,omitempty"`

	// Rate is the per-attempt reconfiguration failure probability of
	// "pr-flaky"; MaxRetries bounds its re-streams (default 3), and
	// Backoff/BackoffFactor shape the exponential retry delays
	// (defaults 1ms and 2.0).
	Rate          float64      `json:"rate,omitempty"`
	MaxRetries    int          `json:"max_retries,omitempty"`
	Backoff       sim.Duration `json:"backoff,omitempty"`
	BackoffFactor float64      `json:"backoff_factor,omitempty"`

	// Factor is the "straggler" service-time multiplier (> 1).
	Factor float64 `json:"factor,omitempty"`

	// CheckpointBytes/RestoreDelay configure "checkpoint": each
	// completed batch item adds CheckpointBytes to every migration's
	// transfer, the destination pays RestoreDelay per transfer, and
	// crash restarts resume from checkpointed per-stage progress
	// instead of item zero.
	CheckpointBytes int64        `json:"checkpoint_bytes,omitempty"`
	RestoreDelay    sim.Duration `json:"restore_delay,omitempty"`

	// Boards restricts "board-fail" to these board indices in the
	// topology's board order (pair by pair, base then boost); empty
	// targets every board.
	Boards []int `json:"boards,omitempty"`
}

// Spec is a scenario's fault configuration: a seed isolating the fault
// axis plus the injector list. The zero Spec (or an absent "faults"
// block) disables the subsystem entirely.
type Spec struct {
	// Seed seeds the fault axis's RNG streams; zero inherits the
	// scenario seed. Changing it re-rolls every fault schedule while
	// arrivals and service times stay fixed.
	Seed uint64 `json:"seed,omitempty"`
	// Injectors are attached in order; index and kind key each one's
	// private stream.
	Injectors []InjectorSpec `json:"injectors,omitempty"`
}

// Enabled reports whether the spec attaches anything.
func (s Spec) Enabled() bool { return len(s.Injectors) > 0 }

// Validate builds every injector and discards the results, reporting
// parameter errors without attaching anything.
func (s Spec) Validate() error {
	for i, inj := range s.Injectors {
		if _, err := inj.Build(); err != nil {
			return fmt.Errorf("fault: injector %d: %w", i, err)
		}
	}
	return nil
}

// Build resolves the spec's kind from the registry and constructs the
// injector, validating all parameters.
func (s InjectorSpec) Build() (Injector, error) {
	if s.Kind == "" {
		return nil, fmt.Errorf("fault: injector spec has no kind (registered: %v)", Names())
	}
	reg, ok := Lookup(s.Kind)
	if !ok {
		return nil, fmt.Errorf("fault: unknown injector %q (registered: %v)", s.Kind, Names())
	}
	return reg.Build(s)
}

// ParseSpec decodes a fault spec from strict JSON (unknown fields
// rejected, matching scenario decoding) — the shared parser behind the
// -fault-json CLI flag.
func ParseSpec(js string) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(strings.NewReader(js))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("fault: decode spec: %w", err)
	}
	return spec, nil
}

// Registration declares one injector kind: canonical name, aliases,
// display title, and a builder that validates a spec and returns a
// ready injector.
type Registration struct {
	// Name is the canonical lower-case lookup key ("slot-fail").
	Name string
	// Aliases are alternate lookup keys ("slot").
	Aliases []string
	// Title is the display name ("Slot fail/recover").
	Title string
	// Build validates spec's parameters and constructs the injector.
	Build func(spec InjectorSpec) (Injector, error)
}

// injectors is the kind registry; like the policy, dispatcher,
// arrival, and platform registries it is backed by the shared
// internal/registry helper.
var injectors = registry.New[*Registration]("fault")

// Register adds an injector kind to the registry. The name (and every
// alias) must be non-empty and not already taken; Build must be
// non-nil.
func Register(r Registration) error {
	if r.Name == "" {
		return fmt.Errorf("fault: register: empty injector name")
	}
	if r.Build == nil {
		return fmt.Errorf("fault: register %q: nil Build", r.Name)
	}
	if r.Title == "" {
		r.Title = r.Name
	}
	reg := r
	return injectors.Register(r.Name, &reg, r.Aliases...)
}

// MustRegister is Register, panicking on error; for init-time use.
func MustRegister(r Registration) {
	if err := Register(r); err != nil {
		panic(err)
	}
}

// Lookup resolves an injector kind by name or alias (case-insensitive).
func Lookup(name string) (*Registration, bool) { return injectors.Lookup(name) }

// Names lists canonical injector names in registration order
// (built-ins first).
func Names() []string { return injectors.Names() }

// Registrations returns every registration in registration order.
func Registrations() []*Registration { return injectors.Values() }
