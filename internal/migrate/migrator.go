package migrate

import (
	"versaslot/internal/appmodel"
	"versaslot/internal/interlink"
	"versaslot/internal/sim"
)

// Payload prices a live migration: application descriptors plus the
// pending input buffers of every migrating app travel over the Aurora
// link via DMA.
type Payload struct {
	Apps  int
	Bytes int64
}

// DescriptorBytes is the control-state size per application: task
// table, batch progress, allocation record, buffer descriptors.
const DescriptorBytes = 4 << 10

// BuildPayload sums the transfer volume for apps: per app one
// descriptor block plus the input buffers of items not yet through the
// first stage (completed items' outputs have already been drained to
// the host; in-flight work stays on the source board by design).
func BuildPayload(apps []*appmodel.App) Payload {
	p := Payload{Apps: len(apps)}
	for _, a := range apps {
		remaining := a.Batch
		if len(a.Stages) > 0 {
			done := a.Stages[0].Done()
			if done > remaining {
				done = remaining
			}
			remaining -= done
		}
		p.Bytes += DescriptorBytes + int64(remaining)*a.Spec.ItemBytes
	}
	return p
}

// Migration is one completed live migration's record.
type Migration struct {
	At       sim.Time
	Apps     int
	Bytes    int64
	Duration sim.Duration
}

// CostModel extends a migration's price with checkpoint/restore
// semantics (the fault subsystem's checkpoint injector installs one):
// each completed batch item adds BytesPerItem of checkpointed
// intermediate state to the transfer, and the destination pays
// RestoreDelay to rehydrate it before the apps re-enter scheduling.
// A nil model is the classic descriptor+input-buffer payload.
type CostModel struct {
	BytesPerItem int64
	RestoreDelay sim.Duration
}

// checkpointBytes sums the extra transfer volume for apps' completed
// per-stage progress.
func (m *CostModel) checkpointBytes(apps []*appmodel.App) int64 {
	var bytes int64
	for _, a := range apps {
		for i := range a.Stages {
			bytes += int64(a.Stages[i].Done()) * m.BytesPerItem
		}
	}
	return bytes
}

// ExecuteModel transfers apps over link and delivers them via deliver,
// with an optional checkpoint/restore cost model (nil: the classic
// payload) applied to the payload and delivery. The record carries the
// switching overhead the paper reports (1.13 ms average on their
// cluster).
func ExecuteModel(k *sim.Kernel, link *interlink.Link, apps []*appmodel.App, model *CostModel, deliver func([]*appmodel.App), record func(Migration)) {
	payload := BuildPayload(apps)
	if model != nil {
		payload.Bytes += model.checkpointBytes(apps)
	}
	start := k.Now()
	for _, a := range apps {
		a.State = appmodel.StateMigrating
		a.Migrated++
		appmodel.ResetStages(a)
	}
	link.Transfer("live-migration", payload.Bytes, func() {
		finish := func() {
			for _, a := range apps {
				a.State = appmodel.StateWaiting
			}
			m := Migration{
				At:       k.Now(),
				Apps:     payload.Apps,
				Bytes:    payload.Bytes,
				Duration: k.Now().Sub(start),
			}
			deliver(apps)
			if record != nil {
				record(m)
			}
		}
		if model != nil && model.RestoreDelay > 0 {
			// The restore completes at the link's priority: it is the
			// tail of the transfer, not a board-local event.
			k.ScheduleP(model.RestoreDelay, link.Priority(), finish)
			return
		}
		finish()
	})
}
