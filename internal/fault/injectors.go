package fault

import (
	"fmt"

	"versaslot/internal/fabric"
	"versaslot/internal/migrate"
	"versaslot/internal/rng"
	"versaslot/internal/sim"
)

// Built-in injector kinds.
const (
	// KindSlotFail fails and recovers individual slots on exponential
	// MTBF/MTTR chains, one independent chain per slot.
	KindSlotFail = "slot-fail"
	// KindBoardFail takes whole boards down and back up; on a farm the
	// board's pair is marked degraded for dispatch and rebalancing.
	KindBoardFail = "board-fail"
	// KindPRFlaky makes PCAP bitstream streaming fail with a
	// per-attempt probability, retried with bounded exponential
	// backoff; exhaustion crash-restarts the application.
	KindPRFlaky = "pr-flaky"
	// KindStraggler degrades slots' service rates in episodes: items
	// launched during an episode take Factor times as long.
	KindStraggler = "straggler"
	// KindCheckpoint switches the topology to checkpoint/restore
	// semantics: crash restarts resume from per-stage progress, and
	// migrations pay for checkpoint state and restore time.
	KindCheckpoint = "checkpoint"
)

func init() {
	MustRegister(Registration{
		Name: KindSlotFail, Aliases: []string{"slot"}, Title: "Slot fail/recover",
		Build: func(s InjectorSpec) (Injector, error) {
			if s.MTBF <= 0 || s.MTTR <= 0 {
				return nil, fmt.Errorf("%s: mtbf and mttr must be positive (got %v/%v)", KindSlotFail, s.MTBF, s.MTTR)
			}
			return &slotFail{mtbf: s.MTBF, mttr: s.MTTR}, nil
		},
	})
	MustRegister(Registration{
		Name: KindBoardFail, Aliases: []string{"board"}, Title: "Board outage",
		Build: func(s InjectorSpec) (Injector, error) {
			if s.MTBF <= 0 || s.MTTR <= 0 {
				return nil, fmt.Errorf("%s: mtbf and mttr must be positive (got %v/%v)", KindBoardFail, s.MTBF, s.MTTR)
			}
			for _, b := range s.Boards {
				if b < 0 {
					return nil, fmt.Errorf("%s: negative board index %d", KindBoardFail, b)
				}
			}
			return &boardFail{mtbf: s.MTBF, mttr: s.MTTR, boards: s.Boards}, nil
		},
	})
	MustRegister(Registration{
		Name: KindPRFlaky, Aliases: []string{"pr", "flaky-pr"}, Title: "Flaky reconfiguration",
		Build: func(s InjectorSpec) (Injector, error) {
			if s.Rate <= 0 || s.Rate >= 1 {
				return nil, fmt.Errorf("%s: rate must be in (0,1) (got %g)", KindPRFlaky, s.Rate)
			}
			if s.MaxRetries < 0 {
				return nil, fmt.Errorf("%s: max_retries must be >= 0 (got %d)", KindPRFlaky, s.MaxRetries)
			}
			if s.Backoff < 0 {
				return nil, fmt.Errorf("%s: backoff must be >= 0 (got %v)", KindPRFlaky, s.Backoff)
			}
			if s.BackoffFactor < 0 || (s.BackoffFactor > 0 && s.BackoffFactor < 1) {
				return nil, fmt.Errorf("%s: backoff_factor must be >= 1 (got %g)", KindPRFlaky, s.BackoffFactor)
			}
			inj := &prFlaky{rate: s.Rate, maxRetries: s.MaxRetries, backoff: s.Backoff, factor: s.BackoffFactor}
			if inj.maxRetries == 0 {
				inj.maxRetries = 3
			}
			if inj.backoff == 0 {
				inj.backoff = sim.Millisecond
			}
			if inj.factor == 0 {
				inj.factor = 2
			}
			return inj, nil
		},
	})
	MustRegister(Registration{
		Name: KindStraggler, Aliases: []string{"slow"}, Title: "Straggling slots",
		Build: func(s InjectorSpec) (Injector, error) {
			if s.MTBF <= 0 || s.MTTR <= 0 {
				return nil, fmt.Errorf("%s: mtbf and mttr must be positive (got %v/%v)", KindStraggler, s.MTBF, s.MTTR)
			}
			if s.Factor <= 1 {
				return nil, fmt.Errorf("%s: factor must be > 1 (got %g)", KindStraggler, s.Factor)
			}
			return &straggler{mtbf: s.MTBF, mttr: s.MTTR, factor: s.Factor}, nil
		},
	})
	MustRegister(Registration{
		Name: KindCheckpoint, Aliases: []string{"ckpt"}, Title: "Checkpoint/restore",
		Build: func(s InjectorSpec) (Injector, error) {
			if s.CheckpointBytes < 0 {
				return nil, fmt.Errorf("%s: checkpoint_bytes must be >= 0 (got %d)", KindCheckpoint, s.CheckpointBytes)
			}
			if s.RestoreDelay < 0 {
				return nil, fmt.Errorf("%s: restore_delay must be >= 0 (got %v)", KindCheckpoint, s.RestoreDelay)
			}
			return &checkpoint{bytesPerItem: s.CheckpointBytes, restore: s.RestoreDelay}, nil
		},
	})
}

// Attach wires a whole Spec onto a target: fault accounting is enabled
// on every engine's collector, then each injector is built and
// attached with its private stream rng.Stream(seed, "fault/<i>/<kind>")
// — keyed by position and canonical kind, so adding or removing one
// injector never reshuffles another's schedule. An empty spec attaches
// nothing and leaves the run byte-identical. seed should be the
// scenario seed; a non-zero Spec.Seed overrides it to re-roll the
// fault axis alone.
func Attach(t *Target, s Spec, seed uint64) error {
	if !s.Enabled() {
		return nil
	}
	if s.Seed != 0 {
		seed = s.Seed
	}
	for _, b := range t.boards() {
		b.engine.EnableFaultMetrics()
	}
	for i, spec := range s.Injectors {
		inj, err := spec.Build()
		if err != nil {
			return fmt.Errorf("fault: injector %d: %w", i, err)
		}
		reg, _ := Lookup(spec.Kind)
		inj.Attach(t, rng.Stream(seed, fmt.Sprintf("fault/%d/%s", i, reg.Name)))
	}
	return nil
}

// slotFail drives one exponential fail/recover chain per slot. The
// next failure is gated on Done() at fire time; the recovery following
// a failure is always scheduled, so no slot stays dead at drain and
// every downtime interval closes.
type slotFail struct {
	mtbf, mttr sim.Duration
}

func (inj *slotFail) Attach(t *Target, r *sim.RNG) {
	// boards() carries each engine's pair index for the pair-clock
	// touch.
	for _, b := range t.boards() {
		for _, s := range b.engine.Board.Slots {
			// One forked stream per slot: slot 3's chain is independent
			// of how often slot 2 failed.
			inj.chain(t, b, s, r.Fork())
		}
	}
}

func (inj *slotFail) chain(t *Target, b board, s *fabric.Slot, r *sim.RNG) {
	// Both halves of the cycle are bound once, so a chain allocates
	// nothing per failure.
	var fail, repair func()
	fail = func() {
		if t.Done() {
			return
		}
		t.touch(b.pair)
		b.engine.FailSlot(s)
		t.K.ScheduleP(r.Exp(inj.mttr), t.Pri, repair)
	}
	repair = func() {
		t.touch(b.pair)
		b.engine.RecoverSlot(s)
		t.K.ScheduleP(r.Exp(inj.mtbf), t.Pri, fail)
	}
	t.K.ScheduleP(r.Exp(inj.mtbf), t.Pri, fail)
}

// boardFail takes a whole board out: every slot fails at once and
// recovers together. A pair board's pair is additionally marked
// degraded (PairOutage), steering the dispatcher and the rebalancer
// around it until recovery.
type boardFail struct {
	mtbf, mttr sim.Duration
	boards     []int
}

func (inj *boardFail) Attach(t *Target, r *sim.RNG) {
	all := t.boards()
	targets := all
	if len(inj.boards) > 0 {
		targets = targets[:0:0]
		for _, i := range inj.boards {
			if i < len(all) {
				targets = append(targets, all[i])
			}
		}
	}
	for _, b := range targets {
		inj.chain(t, b, r.Fork())
	}
}

func (inj *boardFail) chain(t *Target, b board, r *sim.RNG) {
	var fail, repair func()
	fail = func() {
		if t.Done() {
			return
		}
		t.touch(b.pair)
		for _, s := range b.engine.Board.Slots {
			b.engine.FailSlot(s)
		}
		if b.pair >= 0 {
			t.Farm.PairOutage(b.pair)
		}
		t.K.ScheduleP(r.Exp(inj.mttr), t.Pri, repair)
	}
	repair = func() {
		t.touch(b.pair)
		for _, s := range b.engine.Board.Slots {
			b.engine.RecoverSlot(s)
		}
		if b.pair >= 0 {
			t.Farm.PairRestored(b.pair)
		}
		t.K.ScheduleP(r.Exp(inj.mtbf), t.Pri, fail)
	}
	t.K.ScheduleP(r.Exp(inj.mtbf), t.Pri, fail)
}

// prFlaky installs the engines' bounded retry+backoff reconfiguration
// fault model; it schedules nothing itself — failures materialize at
// PCAP completion times, drawn from a per-engine forked stream.
type prFlaky struct {
	rate       float64
	maxRetries int
	backoff    sim.Duration
	factor     float64
}

func (inj *prFlaky) Attach(t *Target, r *sim.RNG) {
	for _, b := range t.boards() {
		b.engine.SetPRFault(inj.rate, inj.maxRetries, inj.backoff, inj.factor, r.Fork())
	}
}

// straggler runs one episode chain per slot: after ~MTBF the slot's
// service rate degrades by factor for ~MTTR, then restores. Episode
// starts are gated on Done(); the restore is always scheduled.
type straggler struct {
	mtbf, mttr sim.Duration
	factor     float64
}

func (inj *straggler) Attach(t *Target, r *sim.RNG) {
	for _, b := range t.boards() {
		for _, s := range b.engine.Board.Slots {
			inj.chain(t, b, s, r.Fork())
		}
	}
}

func (inj *straggler) chain(t *Target, b board, s *fabric.Slot, r *sim.RNG) {
	var slow, restore func()
	slow = func() {
		if t.Done() {
			return
		}
		t.touch(b.pair)
		b.engine.SetSlotSlowdown(s, inj.factor)
		t.K.ScheduleP(r.Exp(inj.mttr), t.Pri, restore)
	}
	restore = func() {
		t.touch(b.pair)
		b.engine.ClearSlotSlowdown(s)
		t.K.ScheduleP(r.Exp(inj.mtbf), t.Pri, slow)
	}
	t.K.ScheduleP(r.Exp(inj.mtbf), t.Pri, slow)
}

// checkpoint flips the topology to checkpoint/restore semantics; it
// draws nothing and schedules nothing.
type checkpoint struct {
	bytesPerItem int64
	restore      sim.Duration
}

func (inj *checkpoint) Attach(t *Target, _ *sim.RNG) {
	for _, b := range t.boards() {
		b.engine.SetCheckpointed(true)
	}
	if t.Farm != nil {
		t.Farm.SetMigrationCost(&migrate.CostModel{BytesPerItem: inj.bytesPerItem, RestoreDelay: inj.restore})
	}
}
