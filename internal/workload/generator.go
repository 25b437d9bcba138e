package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"versaslot/internal/appmodel"
	streams "versaslot/internal/rng"
	"versaslot/internal/sim"
)

// Condition is an arrival-congestion regime from Section IV.
type Condition int

const (
	// Loose: fixed 5000 ms inter-arrival.
	Loose Condition = iota
	// Standard: uniform 1500-2000 ms inter-arrival.
	Standard
	// Stress: uniform 150-200 ms inter-arrival.
	Stress
	// Realtime: fixed 50 ms inter-arrival.
	Realtime
)

// Conditions lists all regimes in the paper's order.
func Conditions() []Condition { return []Condition{Loose, Standard, Stress, Realtime} }

func (c Condition) String() string {
	switch c {
	case Loose:
		return "Loose"
	case Standard:
		return "Standard"
	case Stress:
		return "Stress"
	case Realtime:
		return "Real-time"
	default:
		return fmt.Sprintf("Condition(%d)", int(c))
	}
}

// Key returns the canonical config/CLI key of the condition.
func (c Condition) Key() string {
	switch c {
	case Loose:
		return "loose"
	case Standard:
		return "standard"
	case Stress:
		return "stress"
	case Realtime:
		return "real-time"
	default:
		return fmt.Sprintf("condition-%d", int(c))
	}
}

// ConditionKeys lists the canonical condition keys in the paper's
// order.
func ConditionKeys() []string {
	keys := make([]string, 0, len(Conditions()))
	for _, c := range Conditions() {
		keys = append(keys, c.Key())
	}
	return keys
}

// ParseCondition resolves a condition from its config/CLI name; it is
// the single source of truth for condition naming ("real-time" and
// "realtime" are both accepted, as are the display names).
func ParseCondition(name string) (Condition, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "loose":
		return Loose, nil
	case "standard":
		return Standard, nil
	case "stress":
		return Stress, nil
	case "real-time", "realtime":
		return Realtime, nil
	default:
		return 0, fmt.Errorf("workload: unknown condition %q (want one of %v)", name, ConditionKeys())
	}
}

// Interval returns the inter-arrival bounds of the regime.
func (c Condition) Interval() (lo, hi sim.Duration) {
	switch c {
	case Loose:
		return 5000 * sim.Millisecond, 5000 * sim.Millisecond
	case Standard:
		return 1500 * sim.Millisecond, 2000 * sim.Millisecond
	case Stress:
		return 150 * sim.Millisecond, 200 * sim.Millisecond
	case Realtime:
		return 50 * sim.Millisecond, 50 * sim.Millisecond
	default:
		panic("workload: unknown condition")
	}
}

// Arrival is one application instance in a sequence.
type Arrival struct {
	Spec  string       `json:"spec"`
	Batch int          `json:"batch"`
	At    sim.Duration `json:"at"` // offset from sequence start
}

// Sequence is a generated workload: a stream of application arrivals.
type Sequence struct {
	Name      string    `json:"name"`
	Condition string    `json:"condition"`
	Seed      uint64    `json:"seed"`
	Arrivals  []Arrival `json:"arrivals"`
}

// GenParams controls the generator; defaults follow the paper.
type GenParams struct {
	Apps     int // applications per sequence (paper: 20)
	BatchLo  int // minimum batch size (paper: 5)
	BatchHi  int // maximum batch size (paper: 30)
	FirstAt  sim.Duration
	Specs    []*appmodel.AppSpec
	Condtion Condition
	// IntervalLo/IntervalHi, when nonzero, override the condition's
	// inter-arrival bounds (the Fig. 8 long workloads use this).
	IntervalLo, IntervalHi sim.Duration
	// Poisson, when true, draws exponential inter-arrival times with
	// the condition's mean instead of the paper's uniform intervals —
	// useful for sensitivity studies against burstier traffic.
	Poisson bool
}

// DefaultGenParams returns the paper's configuration for a condition.
func DefaultGenParams(c Condition) GenParams {
	return GenParams{
		Apps:     20,
		BatchLo:  5,
		BatchHi:  30,
		Specs:    Suite(),
		Condtion: c,
	}
}

// Generate builds one random sequence from the params and seed.
func Generate(p GenParams, seed uint64) *Sequence {
	rng := sim.NewRNG(seed)
	lo, hi := p.Condtion.Interval()
	if p.IntervalLo > 0 && p.IntervalHi >= p.IntervalLo {
		lo, hi = p.IntervalLo, p.IntervalHi
	}
	seq := &Sequence{
		Name:      fmt.Sprintf("%s-seed%d", p.Condtion, seed),
		Condition: p.Condtion.String(),
		Seed:      seed,
	}
	at := p.FirstAt
	mean := (lo + hi) / 2
	for i := 0; i < p.Apps; i++ {
		spec := p.Specs[rng.Intn(len(p.Specs))]
		batch := rng.IntRange(p.BatchLo, p.BatchHi)
		seq.Arrivals = append(seq.Arrivals, Arrival{Spec: spec.Name, Batch: batch, At: at})
		if p.Poisson {
			at += rng.Exp(mean)
		} else {
			at += rng.DurationRange(lo, hi)
		}
	}
	return seq
}

// GenerateArrival builds a sequence whose arrival instants come from
// the spec's registered arrival process. The arrival stream and the
// spec/batch picks draw from independent forks of the seed's RNG, so
// two processes over the same seed schedule the same applications at
// different times — only the arrival axis varies. The classic
// Generate path (uniform/Poisson interleaved draws) is untouched for
// byte-compatibility with the paper's sequences.
func GenerateArrival(p GenParams, spec ArrivalSpec, seed uint64) (*Sequence, error) {
	if p.Apps < 0 {
		return nil, fmt.Errorf("workload: negative app count %d", p.Apps)
	}
	proc, err := spec.Build()
	if err != nil {
		return nil, err
	}
	rng, arrivalRNG := streams.Pair(seed)
	times, err := proc.Times(arrivalRNG, p.Apps)
	if err != nil {
		return nil, err
	}
	if len(times) < p.Apps {
		return nil, fmt.Errorf("workload: arrival process %q produced %d offsets, want %d", spec.Process, len(times), p.Apps)
	}
	reg, _ := LookupArrival(spec.Process)
	seq := &Sequence{
		Name:      fmt.Sprintf("%s-%s-seed%d", reg.Name, p.Condtion, seed),
		Condition: p.Condtion.String(),
		Seed:      seed,
	}
	for i := 0; i < p.Apps; i++ {
		appSpec := p.Specs[rng.Intn(len(p.Specs))]
		batch := rng.IntRange(p.BatchLo, p.BatchHi)
		seq.Arrivals = append(seq.Arrivals, Arrival{
			Spec:  appSpec.Name,
			Batch: batch,
			At:    p.FirstAt + times[i],
		})
	}
	return seq, nil
}

// GenerateSet builds the paper's 10-sequence workload set for a
// condition: sequence i uses seed base+i.
func GenerateSet(c Condition, baseSeed uint64, n int) []*Sequence {
	out := make([]*Sequence, n)
	p := DefaultGenParams(c)
	for i := 0; i < n; i++ {
		out[i] = Generate(p, baseSeed+uint64(i))
	}
	return out
}

// Instantiate materializes the sequence into App instances (IDs are
// assigned in arrival order starting at firstID). The apps share one
// backing block, so a sequence costs two allocations however long it
// is.
func (s *Sequence) Instantiate(firstID int) ([]*appmodel.App, error) {
	block := make([]appmodel.App, len(s.Arrivals))
	apps := make([]*appmodel.App, len(s.Arrivals))
	tasks := 0
	for i, a := range s.Arrivals {
		spec := SpecByName(a.Spec)
		if spec == nil {
			return nil, fmt.Errorf("workload: unknown spec %q", a.Spec)
		}
		block[i].Init(firstID+i, spec, a.Batch, sim.Time(a.At))
		apps[i] = &block[i]
		tasks += spec.TaskCount()
	}
	// One stage block for every app's first plan: a plan has at most
	// one stage per task.
	stages := make([]appmodel.Stage, tasks)
	for _, a := range apps {
		n := a.Spec.TaskCount()
		a.UseStageBuffer(stages[:n:n])
		stages = stages[n:]
	}
	return apps, nil
}

// WriteJSON serializes the sequence.
func (s *Sequence) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJSON deserializes a sequence.
func ReadJSON(r io.Reader) (*Sequence, error) {
	var s Sequence
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("workload: decode sequence: %w", err)
	}
	for _, a := range s.Arrivals {
		if SpecByName(a.Spec) == nil {
			return nil, fmt.Errorf("workload: unknown spec %q", a.Spec)
		}
		if a.Batch <= 0 {
			return nil, fmt.Errorf("workload: non-positive batch %d", a.Batch)
		}
	}
	return &s, nil
}
