package trace

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"versaslot/internal/appmodel"
	"versaslot/internal/sim"
)

// Kind classifies a board event.
type Kind int

const (
	// PRRequest: a partial reconfiguration was issued.
	PRRequest Kind = iota
	// PRDone: the bitstream finished loading.
	PRDone
	// ExecStart: a batch item began executing in a slot.
	ExecStart
	// ExecDone: a batch item completed.
	ExecDone
	// AppArrive: an application entered the system.
	AppArrive
	// AppFinish: an application completed its batch.
	AppFinish
	// PRRetry: an injected reconfiguration error, retried after a
	// backoff.
	PRRetry
	// PRAbort: a load whose slot failed or whose app crashed was torn
	// down.
	PRAbort
	// PRExhausted: a load ran out of retries; its app crash-restarts.
	PRExhausted
	// AppCrash: a fault crash-restarted an application.
	AppCrash
	// SlotFail and SlotRecover: a slot left and re-entered service.
	SlotFail
	SlotRecover
	// SlotStraggle and SlotRestore: a slot's service rate degraded and
	// was restored.
	SlotStraggle
	SlotRestore
	// Switch: a switching pair moved to its other board.
	Switch
	numKinds
)

var kindNames = [numKinds]string{"pr-req", "pr-done", "exec", "done", "arrive", "finish",
	"pr-retry", "pr-abort", "pr-fail", "crash", "slot-fail", "recover", "straggle", "restore", "switch"}

func (k Kind) String() string {
	if k >= 0 && k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one board event, as the engine emits it to a Sink. App and
// Stage point at live simulator state and are valid only while Emit
// runs: stage records are reused after a re-plan.
type Event struct {
	At   sim.Time
	Kind Kind
	// Board is the board the event happened on; a switch names its
	// pair's first board.
	Board int
	// Slot is the slot ID, or -1 when the event concerns no slot.
	Slot int
	// App and Stage are the event's subject, nil when it has none.
	App   *appmodel.App
	Stage *appmodel.Stage
	// Item is an exec event's batch item; Attempt and Retries are a PR
	// retry's attempt (from 1) and bound.
	Item, Attempt, Retries int
	// Dur is an exec start's service time, a PR done's queueing wait, a
	// PR retry's backoff and a finished app's response time.
	Dur sim.Duration
	// Factor is a straggling slot's slowdown.
	Factor float64
	// From and To are a switch's board titles.
	From, To string
}

// Sink receives a run's board events. A sink that keeps an event
// copies what it needs of App and Stage (see Recorder).
type Sink interface{ Emit(Event) }

// lines is the engine's trace line of each kind that has one: its
// format and its arguments.
var lines = [numKinds]struct {
	format string
	args   func(e Event) []any
}{
	PRRequest:    {"%v PR request %v -> slot %d", atStageSlot},
	PRDone:       {"%v PR done %v -> slot %d (wait %v)", func(e Event) []any { return []any{e.At, e.Stage, e.Slot, e.Dur} }},
	PRRetry:      {"%v PR fault retry %d/%d for %v -> slot %d (backoff %v)", func(e Event) []any { return []any{e.At, e.Attempt, e.Retries, e.Stage, e.Slot, e.Dur} }},
	PRAbort:      {"%v PR aborted on slot %d", atSlot},
	PRExhausted:  {"%v PR retries exhausted for %v on slot %d", atStageSlot},
	ExecStart:    {"%v exec %v item %d on slot %d (%v)", func(e Event) []any { return []any{e.At, e.Stage, e.Item, e.Slot, e.Dur} }},
	AppFinish:    {"%v app %v finished (response %v)", func(e Event) []any { return []any{e.At, e.App, e.Dur} }},
	AppCrash:     {"%v app %v crash-restart", func(e Event) []any { return []any{e.At, e.App} }},
	SlotFail:     {"%v slot %d FAILED", atSlot},
	SlotRecover:  {"%v slot %d recovered", atSlot},
	SlotStraggle: {"%v slot %d straggling (x%.2f)", func(e Event) []any { return []any{e.At, e.Slot, e.Factor} }},
	SlotRestore:  {"%v slot %d service rate restored", atSlot},
}

func atSlot(e Event) []any      { return []any{e.At, e.Slot} }
func atStageSlot(e Event) []any { return []any{e.At, e.Stage, e.Slot} }

// Line returns e's trace line as a format and its arguments, or an
// empty format for the kinds that print none: exec done, arrive and
// switch.
func (e Event) Line() (string, []any) {
	l := lines[e.Kind]
	if l.args == nil {
		return "", nil
	}
	return l.format, l.args(e)
}

// Record is what a Recorder keeps of an event: values only.
type Record struct {
	At          sim.Time
	Kind        Kind
	Board, Slot int
	// App names the subject application ("IC#3(b=4)"), "" if none;
	// Stage is the subject stage's index, -1 if none.
	App   string
	Stage int
	// Item, Dur, From and To are the event's.
	Item     int
	Dur      sim.Duration
	From, To string
}

// Recorder collects events up to a bound (0 = unbounded). Construct
// with NewRecorder; a nil recorder records nothing.
type Recorder struct {
	records []Record
	max     int
	dropped int
}

// NewRecorder returns a recorder holding up to max events (0 = no cap).
func NewRecorder(max int) *Recorder {
	return &Recorder{max: max}
}

// Record keeps a copy of e, dropping it if the recorder is full.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	rec := Record{At: e.At, Kind: e.Kind, Board: e.Board, Slot: e.Slot, Stage: -1,
		Item: e.Item, Dur: e.Dur, From: e.From, To: e.To}
	a := e.App
	if e.Stage != nil {
		a, rec.Stage = e.Stage.App, e.Stage.Index()
	}
	if a != nil {
		rec.App = a.String()
	}
	r.keep(rec)
}

func (r *Recorder) keep(rec Record) {
	if r.max > 0 && len(r.records) >= r.max {
		r.dropped++
		return
	}
	r.records = append(r.records, rec)
}

// Events returns the recording in time order (stable for equal times).
func (r *Recorder) Events() []Record {
	out := slices.Clone(r.records)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Dropped reports how many events exceeded the cap.
func (r *Recorder) Dropped() int { return r.dropped }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.records) }

// CountByKind tallies events per kind.
func (r *Recorder) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range r.records {
		out[e.Kind]++
	}
	return out
}

// multiBoard reports whether the recording spans more than one board;
// its renderings then name each event's board.
func (r *Recorder) multiBoard() bool {
	for _, e := range r.records {
		if e.Board != r.records[0].Board {
			return true
		}
	}
	return false
}

// WriteLog renders the recording as one line per event.
func (r *Recorder) WriteLog(w io.Writer) {
	multi := r.multiBoard()
	for _, e := range r.Events() {
		fmt.Fprintf(w, "%12.3fms  %-7s ", e.At.Milliseconds(), e.Kind)
		if multi {
			fmt.Fprintf(w, "board=%d ", e.Board)
		}
		switch {
		case e.Kind == Switch:
			fmt.Fprintf(w, "%s -> %s\n", e.From, e.To)
		case e.Stage >= 0:
			fmt.Fprintf(w, "slot=%d %s/s%d", e.Slot, e.App, e.Stage)
			switch e.Kind {
			case PRDone:
				fmt.Fprintf(w, " wait=%v", e.Dur)
			case ExecStart, ExecDone:
				fmt.Fprintf(w, " item=%d", e.Item)
			}
			fmt.Fprintln(w)
		case e.Slot >= 0:
			fmt.Fprintf(w, "slot=%d\n", e.Slot)
		default:
			fmt.Fprintf(w, "%s\n", e.App)
		}
	}
	if r.dropped > 0 {
		fmt.Fprintf(w, "... %d events dropped (recorder cap)\n", r.dropped)
	}
}

// Timeline renders a Gantt-style view: one row per slot (per board and
// slot when the recording spans boards), one column per time bucket;
// each cell shows the slot's state ('#' executing, '~' loading, '.'
// idle-resident, 'x' failed, ' ' empty).
type Timeline struct {
	// Buckets is the number of time columns (default 100).
	Buckets int
}

// Render draws the timeline for the recording.
func (tl Timeline) Render(w io.Writer, r *Recorder) {
	events := r.Events()
	if len(events) == 0 {
		fmt.Fprintln(w, "(no events)")
		return
	}
	buckets := tl.Buckets
	if buckets <= 0 {
		buckets = 100
	}
	end := events[len(events)-1].At
	if end == 0 {
		end = 1
	}
	bucketOf := func(at sim.Time) int {
		return min(int(int64(at)*int64(buckets)/int64(end)), buckets-1)
	}
	// A row paints its current state from since up to each change.
	type key struct{ board, slot int }
	type row struct {
		cells []byte
		ch    byte
		since sim.Time
	}
	rows := map[key]*row{}
	paint := func(rw *row, upto sim.Time) {
		if rw.ch != ' ' {
			for i := bucketOf(rw.since); i <= bucketOf(upto); i++ {
				rw.cells[i] = rw.ch
			}
		}
	}
	failed := false
	for _, e := range events {
		if e.Slot < 0 {
			continue
		}
		k := key{e.Board, e.Slot}
		rw := rows[k]
		if rw == nil {
			rw = &row{cells: bytes.Repeat([]byte{' '}, buckets), ch: ' '}
			rows[k] = rw
		}
		var ch byte
		switch e.Kind {
		case PRRequest:
			ch = '~'
		case PRDone, ExecDone:
			ch = '.'
		case ExecStart:
			ch = '#'
		case SlotFail:
			ch, failed = 'x', true
		case SlotRecover, PRAbort, PRExhausted:
			ch = ' '
		default:
			continue
		}
		paint(rw, e.At)
		rw.ch, rw.since = ch, e.At
	}
	keys := make([]key, 0, len(rows))
	for k, rw := range rows {
		paint(rw, end)
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		return a.board < b.board || a.board == b.board && a.slot < b.slot
	})

	legend := ""
	if failed {
		legend = ", x failed"
	}
	fmt.Fprintf(w, "timeline: 0 .. %.1fms  (~ loading, # executing, . resident idle%s)\n",
		end.Milliseconds(), legend)
	multi := r.multiBoard()
	for _, k := range keys {
		if multi {
			fmt.Fprintf(w, "board %d ", k.board)
		}
		fmt.Fprintf(w, "slot %2d |%s|\n", k.slot, rows[k].cells)
	}
}

// Summarize prints headline counts for a recording.
func (r *Recorder) Summarize(w io.Writer) {
	counts := r.CountByKind()
	var parts []string
	for k := range numKinds {
		if n := counts[k]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, n))
		}
	}
	fmt.Fprintf(w, "events: %s\n", strings.Join(parts, " "))
}
