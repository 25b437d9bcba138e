package experiments

import (
	"fmt"
	"runtime"

	"versaslot"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// Config sizes the evaluation; the zero value is replaced by Default.
type Config struct {
	// Sequences per condition (paper: 10).
	Sequences int
	// Apps per sequence (paper: 20).
	Apps int
	// BaseSeed derives per-sequence seeds.
	BaseSeed uint64
	// Parallelism bounds concurrent simulations (0 = NumCPU).
	Parallelism int
}

// Default returns the paper's evaluation scale.
func Default() Config {
	return Config{Sequences: 10, Apps: 20, BaseSeed: 1000}
}

// Quick returns a reduced scale for smoke tests and -short mode.
func Quick() Config {
	return Config{Sequences: 3, Apps: 10, BaseSeed: 1000}
}

func (c Config) workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.NumCPU()
}

// systems lists the paper's six evaluated systems by registry name, in
// its presentation order: Baseline first (the normalization reference),
// VersaSlot Big.Little last.
var systems = []string{"baseline", "fcfs", "rr", "nimblock", "versaslot-ol", "versaslot-bl"}

// title returns the display title of a registered policy.
func title(name string) string {
	r, _ := sched.Lookup(name)
	return r.Title
}

// conditionSequences pre-generates each condition's workload set:
// sequences are shared across policies within a condition, so every
// system sees the identical arrival stream (paper setup).
func conditionSequences(cfg Config, conditions []workload.Condition) [][]*workload.Sequence {
	seqs := make([][]*workload.Sequence, len(conditions))
	for ci, cond := range conditions {
		p := workload.DefaultGenParams(cond)
		p.Apps = cfg.Apps
		seqs[ci] = make([]*workload.Sequence, cfg.Sequences)
		for si := 0; si < cfg.Sequences; si++ {
			seqs[ci][si] = workload.Generate(p, cfg.BaseSeed+uint64(100*ci+si))
		}
	}
	return seqs
}

// runGrid executes every (condition, policy, sequence) cell through
// versaslot.RunMany and returns results indexed
// [condition][policy][sequence].
func runGrid(cfg Config, conditions []workload.Condition, policies []string) [][][]*versaslot.Result {
	seqs := conditionSequences(cfg, conditions)
	grid := make([][][]*versaslot.Result, len(conditions))
	type cell struct{ ci, ki, si int }
	var cells []cell
	var scenarios []versaslot.Scenario
	for ci := range conditions {
		grid[ci] = make([][]*versaslot.Result, len(policies))
		for ki, name := range policies {
			grid[ci][ki] = make([]*versaslot.Result, cfg.Sequences)
			for si := 0; si < cfg.Sequences; si++ {
				cells = append(cells, cell{ci, ki, si})
				scenarios = append(scenarios, versaslot.Scenario{
					Name:     fmt.Sprintf("%s/%s/seq%d", name, conditions[ci], si),
					Policy:   name,
					Workload: seqs[ci][si],
					Seed:     cfg.BaseSeed + uint64(si),
				})
			}
		}
	}
	results, err := versaslot.RunMany(scenarios, cfg.workers())
	if err != nil {
		panic(err)
	}
	for n, c := range cells {
		grid[c.ci][c.ki][c.si] = results[n]
	}
	return grid
}

// meanOver averages per-sequence mean response times.
func meanOver(results []*versaslot.Result) sim.Duration {
	return versaslot.MeanRT(results)
}

// pooledPct computes a percentile over all sequences' samples.
func pooledPct(results []*versaslot.Result, p float64) sim.Duration {
	return versaslot.PooledPercentile(results, p)
}
