package trace

import (
	"strings"
	"testing"

	"versaslot/internal/sim"
)

func TestRecorderOrder(t *testing.T) {
	r := NewRecorder(0)
	r.keep(Record{At: 30, Kind: ExecDone, Slot: 0, App: "a", Item: 0})
	r.keep(Record{At: 10, Kind: PRRequest, Slot: 0, App: "a", Item: -1})
	r.keep(Record{At: 20, Kind: ExecStart, Slot: 0, App: "a", Item: 0})
	events := r.Events()
	if len(events) != 3 {
		t.Fatal("event count")
	}
	if events[0].Kind != PRRequest || events[2].Kind != ExecDone {
		t.Fatal("events not time-ordered")
	}
}

func TestRecorderCap(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.keep(Record{At: sim.Time(i), Kind: ExecStart})
	}
	if r.Len() != 2 {
		t.Fatalf("len %d, want 2", r.Len())
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped %d, want 3", r.Dropped())
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{}) // must not panic
}

func TestCountByKind(t *testing.T) {
	r := NewRecorder(0)
	r.keep(Record{Kind: ExecStart})
	r.keep(Record{Kind: ExecStart})
	r.keep(Record{Kind: PRDone})
	c := r.CountByKind()
	if c[ExecStart] != 2 || c[PRDone] != 1 {
		t.Fatalf("counts %v", c)
	}
}

func TestWriteLog(t *testing.T) {
	r := NewRecorder(1)
	r.keep(Record{At: sim.Time(5 * sim.Millisecond), Kind: PRDone, Slot: 3, App: "IC#1", Stage: 2, Dur: sim.Millisecond})
	r.keep(Record{At: 0, Kind: ExecStart}) // dropped
	var b strings.Builder
	r.WriteLog(&b)
	out := b.String()
	if !strings.Contains(out, "pr-done") || !strings.Contains(out, "slot=3") {
		t.Fatalf("log content: %q", out)
	}
	if !strings.Contains(out, "1 events dropped") {
		t.Fatal("drop notice missing")
	}
}

func TestTimelineRender(t *testing.T) {
	r := NewRecorder(0)
	ms := func(v int) sim.Time { return sim.Time(v) * sim.Time(sim.Millisecond) }
	r.keep(Record{At: ms(0), Kind: PRRequest, Slot: 0, App: "a", Item: -1})
	r.keep(Record{At: ms(10), Kind: PRDone, Slot: 0, App: "a", Item: -1})
	r.keep(Record{At: ms(10), Kind: ExecStart, Slot: 0, App: "a", Item: 0})
	r.keep(Record{At: ms(50), Kind: ExecDone, Slot: 0, App: "a", Item: 0})
	r.keep(Record{At: ms(100), Kind: ExecStart, Slot: 1, App: "b", Item: 0})
	r.keep(Record{At: ms(200), Kind: ExecDone, Slot: 1, App: "b", Item: 0})
	var b strings.Builder
	Timeline{Buckets: 40}.Render(&b, r)
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 slots
		t.Fatalf("timeline lines: %q", out)
	}
	if !strings.Contains(lines[1], "~") || !strings.Contains(lines[1], "#") {
		t.Fatalf("slot 0 row missing load/exec marks: %q", lines[1])
	}
	if !strings.Contains(lines[2], "#") {
		t.Fatalf("slot 1 row missing exec marks: %q", lines[2])
	}
}

func TestTimelineEmpty(t *testing.T) {
	var b strings.Builder
	Timeline{}.Render(&b, NewRecorder(0))
	if !strings.Contains(b.String(), "no events") {
		t.Fatal("empty timeline output")
	}
}

func TestSummarize(t *testing.T) {
	r := NewRecorder(0)
	r.keep(Record{Kind: AppArrive})
	r.keep(Record{Kind: ExecStart})
	r.keep(Record{Kind: ExecStart})
	r.keep(Record{Kind: AppFinish})
	var b strings.Builder
	r.Summarize(&b)
	if b.String() != "events: exec=2 arrive=1 finish=1\n" {
		t.Fatalf("summary: %q", b.String())
	}
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := range numKinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind string %q", s)
		}
		seen[s] = true
	}
}

// TestMultiBoardRows checks that a recording spanning boards keys its
// log lines and timeline rows by board and slot: two boards executing
// on slot 0 at once get a row each.
func TestMultiBoardRows(t *testing.T) {
	r := NewRecorder(0)
	ms := func(v int) sim.Time { return sim.Time(v) * sim.Time(sim.Millisecond) }
	r.keep(Record{At: ms(0), Kind: ExecStart, Board: 0, Slot: 0, App: "a", Stage: 0})
	r.keep(Record{At: ms(0), Kind: ExecStart, Board: 1, Slot: 0, App: "b", Stage: 0})
	r.keep(Record{At: ms(10), Kind: ExecDone, Board: 1, Slot: 0, App: "b", Stage: 0})
	r.keep(Record{At: ms(20), Kind: ExecDone, Board: 0, Slot: 0, App: "a", Stage: 0})
	var log, tl strings.Builder
	r.WriteLog(&log)
	if !strings.Contains(log.String(), "exec    board=1 slot=0 b/s0 item=0") {
		t.Errorf("log names no board: %q", log.String())
	}
	Timeline{Buckets: 10}.Render(&tl, r)
	lines := strings.Split(strings.TrimRight(tl.String(), "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "board 0 slot  0 |#") || !strings.HasPrefix(lines[2], "board 1 slot  0 |#") {
		t.Errorf("timeline rows: %q", tl.String())
	}
}

// TestLineKinds checks which kinds print a trace line: every kind
// except exec done, arrive and switch.
func TestLineKinds(t *testing.T) {
	for k := range numKinds {
		format, _ := Event{Kind: k}.Line()
		silent := k == ExecDone || k == AppArrive || k == Switch
		if (format == "") != silent {
			t.Errorf("%v: line %q", k, format)
		}
	}
}
