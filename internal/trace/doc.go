// Package trace is the simulator's board event stream. An Event is
// one typed occurrence on a board (PR request, done, retry, abort and
// exhaustion; item start and completion; app arrival, finish and
// crash; slot failure, recovery, straggle and restore; a pair's
// switch), stamped with its time and board. The engine emits each
// event once, to a Sink; the views read that one stream:
//
//   - Event.Line renders a kind's trace line through one table of
//     format strings;
//   - a Recorder keeps a bounded copy of the events as plain Records,
//     which WriteLog prints one per line and Timeline renders as a
//     per-slot Gantt view (per board and slot when a recording spans
//     boards), the textual equivalent of the paper's Fig. 2 schematics.
package trace
