package sim

import (
	"container/heap"
	"testing"
)

// refEvent / refHeap reimplement the kernel's original event queue — a
// container/heap binary heap of per-event pointers with eager cancels —
// as the reference the register-fronted 4-ary kernel is differentially
// tested against.
type refEvent struct {
	at       Time
	priority int32
	seq      uint64
	label    int
	canceled bool
	index    int
	// chain and gap are the follow-ups the event schedules when it
	// fires (see plan).
	chain int
	gap   Duration
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].priority != h[j].priority {
		return h[i].priority < h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// refKernel replays the same trace through the reference binary heap.
// Its run primitives restate the kernel's documented semantics over
// the reference queue.
type refKernel struct {
	now      Time
	queue    refHeap
	seq      uint64
	executed uint64
	// onFire, when set, runs for every executed event.
	onFire func(e *refEvent)
}

func (r *refKernel) schedule(d Duration, priority int32, label int) *refEvent {
	e := &refEvent{at: r.now.Add(d), priority: priority, seq: r.seq, label: label, index: -1}
	r.seq++
	heap.Push(&r.queue, e)
	return e
}

func (r *refKernel) cancel(e *refEvent) {
	if e.canceled || e.index < 0 {
		return
	}
	e.canceled = true
	heap.Remove(&r.queue, e.index)
}

func (r *refKernel) nextAt() (Time, bool) {
	if len(r.queue) == 0 {
		return 0, false
	}
	return r.queue[0].at, true
}

// step executes the next event.
func (r *refKernel) step() bool {
	if len(r.queue) == 0 {
		return false
	}
	e := heap.Pop(&r.queue).(*refEvent)
	r.now = e.at
	r.executed++
	if r.onFire != nil {
		r.onFire(e)
	}
	return true
}

func (r *refKernel) run() {
	for r.step() {
	}
}

func (r *refKernel) runTo(bound Time) Time {
	for {
		at, ok := r.nextAt()
		if !ok {
			return MaxTime
		}
		if at >= bound {
			return at
		}
		r.step()
	}
}

func (r *refKernel) advanceTo(t Time) {
	if t > r.now {
		r.now = t
	}
}

// opKind is one kind of trace operation.
type opKind uint8

const (
	opSchedule  opKind = iota // schedule an event arg µs ahead
	opCancel                  // cancel the event labelled arg (mod labels)
	opCancelMin               // cancel the earliest pending event
	opStep                    // Step once
	opRunTo                   // RunTo(now + arg µs)
	opAdvanceTo               // AdvanceTo(now + arg µs), clipped to the next event
	opNextAt                  // NextAt
	numOps
)

// traceOp is one operation of a generated event trace.
type traceOp struct {
	kind opKind
	arg  uint16
	// priority and chain apply to opSchedule: the event's priority
	// class, and how many follow-ups it schedules when it fires (each
	// follow-up chains one fewer, at the same priority).
	priority int32
	chain    int
}

// plan is what a fired event does: schedule chain follow-ups gap later.
type plan struct {
	chain int
	gap   Duration
}

const opBytes = 4

// encodeTrace packs ops four bytes each: kind, arg (little-endian), and
// a flags byte holding priority+4 (3 bits) and chain (2 bits).
func encodeTrace(ops []traceOp) []byte {
	b := make([]byte, 0, len(ops)*opBytes)
	for _, op := range ops {
		flags := byte(op.priority+4)&7 | byte(op.chain&3)<<3
		b = append(b, byte(op.kind), byte(op.arg), byte(op.arg>>8), flags)
	}
	return b
}

// decodeTrace is encodeTrace's inverse; it accepts any byte string
// (trailing partial records are ignored), which makes it the fuzzer's
// input grammar.
func decodeTrace(b []byte) []traceOp {
	ops := make([]traceOp, 0, len(b)/opBytes)
	for ; len(b) >= opBytes; b = b[opBytes:] {
		ops = append(ops, traceOp{
			kind:     opKind(b[0] % byte(numOps)),
			arg:      uint16(b[1]) | uint16(b[2])<<8,
			priority: int32(b[3]&7) - 4,
			chain:    int(b[3]>>3) & 3,
		})
	}
	return ops
}

// genTrace builds a deterministic pseudo-random trace: bursts of
// same-instant events, priority ties, wide delay spread, chained
// follow-ups, cancels of live, fired, already-canceled and earliest
// events, interleaved with every run primitive.
func genTrace(seed uint64, n int) []traceOp {
	rng := NewRNG(seed)
	ops := make([]traceOp, 0, n)
	for i := 0; i < n; i++ {
		op := traceOp{kind: opSchedule}
		switch r := rng.Intn(36); {
		case r < 4: // same-instant burst member
			op.arg = 5000
		case r < 8: // priority tie at a shared instant
			op.arg = 7000
			op.priority = int32(rng.Intn(5)) - 2
		case r < 20:
			op.arg = uint16(rng.IntRange(1, 20000))
			if rng.Intn(4) == 0 {
				op.priority = int32(rng.Intn(7)) - 3
			}
			if rng.Intn(3) == 0 {
				op.chain = rng.IntRange(1, 3)
			}
		case r < 24:
			op.kind, op.arg = opCancel, uint16(rng.Intn(1<<16))
		case r < 26:
			op.kind = opCancelMin
		case r < 28:
			op.kind = opStep
		case r < 32:
			op.kind, op.arg = opRunTo, uint16(rng.IntRange(0, 3000))
		case r < 34:
			op.kind, op.arg = opAdvanceTo, uint16(rng.IntRange(0, 3000))
		default:
			op.kind = opNextAt
		}
		ops = append(ops, op)
	}
	return ops
}

// diffRun drives one trace through the kernel and the reference side by
// side. Labels are handed out in schedule order on each side, so they
// agree as long as the fire orders do.
type diffRun struct {
	t    testing.TB
	k    *Kernel
	ref  *refKernel
	ids  []EventID   // kernel handle per label
	refs []*refEvent // reference event per label

	got, want []int // fired labels, in order
	checked   int   // prefix of got/want already compared
}

func (d *diffRun) kschedule(delay Duration, priority int32, p plan) {
	label := len(d.ids)
	d.ids = append(d.ids, d.k.ScheduleP(delay, priority, func() {
		d.got = append(d.got, label)
		for c := 0; c < p.chain; c++ {
			d.kschedule(p.gap, priority, plan{chain: p.chain - 1, gap: p.gap})
		}
	}))
}

func (d *diffRun) rschedule(delay Duration, priority int32, p plan) {
	e := d.ref.schedule(delay, priority, len(d.refs))
	e.chain, e.gap = p.chain, p.gap
	d.refs = append(d.refs, e)
}

func (d *diffRun) rfire(e *refEvent) {
	d.want = append(d.want, e.label)
	for c := 0; c < e.chain; c++ {
		d.rschedule(e.gap, e.priority, plan{chain: e.chain - 1, gap: e.gap})
	}
}

// cancel cancels one event on both sides, checking first that both
// agree whether it is still pending.
func (d *diffRun) cancel(i int, op traceOp, label int) {
	d.t.Helper()
	if got, want := d.k.Scheduled(d.ids[label]), d.refs[label].index >= 0; got != want {
		d.fatalf(i, op, "event %d scheduled = %v, reference %v", label, got, want)
	}
	d.k.Cancel(d.ids[label])
	d.ref.cancel(d.refs[label])
}

func (d *diffRun) fatalf(i int, op traceOp, format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("op %d %+v: "+format, append([]any{i, op}, args...)...)
}

// apply runs one op on both sides and compares what it returned.
func (d *diffRun) apply(i int, op traceOp) {
	d.t.Helper()
	arg := Duration(op.arg) * Microsecond
	now := d.ref.now
	switch op.kind {
	case opSchedule:
		p := plan{chain: op.chain, gap: Duration(op.arg%500+1) * Microsecond}
		d.kschedule(arg, op.priority, p)
		d.rschedule(arg, op.priority, p)
	case opCancel:
		if n := min(len(d.ids), len(d.refs)); n > 0 {
			d.cancel(i, op, int(op.arg)%n)
		}
	case opCancelMin:
		if len(d.ref.queue) > 0 {
			if l := d.ref.queue[0].label; l < len(d.ids) {
				d.cancel(i, op, l)
			}
		}
	case opStep:
		if got, want := d.k.Step(), d.ref.step(); got != want {
			d.fatalf(i, op, "Step = %v, reference %v", got, want)
		}
	case opRunTo:
		if got, want := d.k.RunTo(now.Add(arg)), d.ref.runTo(now.Add(arg)); got != want {
			d.fatalf(i, op, "RunTo = %v, reference %v", got, want)
		}
	case opAdvanceTo:
		t := now.Add(arg)
		if at, ok := d.ref.nextAt(); ok && at < t {
			t = at
		}
		d.k.AdvanceTo(t)
		d.ref.advanceTo(t)
	case opNextAt:
		gotAt, gotOK := d.k.NextAt()
		wantAt, wantOK := d.ref.nextAt()
		if gotAt != wantAt || gotOK != wantOK {
			d.fatalf(i, op, "NextAt = %v,%v, reference %v,%v", gotAt, gotOK, wantAt, wantOK)
		}
	}
	d.check(i, op)
}

// check compares the observable kernel state after an op.
func (d *diffRun) check(i int, op traceOp) {
	d.t.Helper()
	if d.k.Now() != d.ref.now {
		d.fatalf(i, op, "clock %v, reference %v", d.k.Now(), d.ref.now)
	}
	if d.k.Pending() != len(d.ref.queue) {
		d.fatalf(i, op, "pending %d, reference %d", d.k.Pending(), len(d.ref.queue))
	}
	if d.k.Executed() != d.ref.executed {
		d.fatalf(i, op, "executed %d, reference %d", d.k.Executed(), d.ref.executed)
	}
	if len(d.got) != len(d.want) {
		d.fatalf(i, op, "fired %d events, reference %d", len(d.got), len(d.want))
	}
	for j := d.checked; j < len(d.want); j++ {
		if d.got[j] != d.want[j] {
			d.fatalf(i, op, "divergence at position %d: got event %d, reference %d", j, d.got[j], d.want[j])
		}
	}
	d.checked = len(d.want)
}

// diffTrace replays ops through both queues, checking after every op,
// then drains both.
func diffTrace(t testing.TB, ops []traceOp) {
	t.Helper()
	d := &diffRun{t: t, k: NewKernel(1), ref: &refKernel{}}
	d.ref.onFire = d.rfire
	for i, op := range ops {
		d.apply(i, op)
	}
	d.k.Run()
	d.ref.run()
	d.check(len(ops), traceOp{kind: numOps})
}

// TestKernelDifferentialOrder replays random traces through the kernel
// and the reference binary heap — schedules, cancels (the current
// minimum included) and every run primitive — and asserts both fire the same events in the same order with the same
// clocks and return values.
func TestKernelDifferentialOrder(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		diffTrace(t, genTrace(seed, 400))
	}
}

// FuzzKernelDiff is the coverage-guided form of
// TestKernelDifferentialOrder: any byte string decodes to a trace, and
// the kernel must agree with the reference on it. Seeded with the
// generated traces (decodeTrace inverts encodeTrace).
//
//	go test -run '^$' -fuzz=FuzzKernelDiff -fuzztime=20s ./internal/sim
func FuzzKernelDiff(f *testing.F) {
	for seed := uint64(1); seed <= 25; seed++ {
		f.Add(encodeTrace(genTrace(seed, 400)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 512
		if len(data) > maxOps*opBytes {
			data = data[:maxOps*opBytes]
		}
		diffTrace(t, decodeTrace(data))
	})
}

// TestKernelDifferentialNested extends the differential check to
// run-time behaviour: callbacks schedule follow-up events and cancel
// pending ones mid-run, driven by the same RNG stream on both sides.
func TestKernelDifferentialNested(t *testing.T) {
	type plan struct {
		d        Duration
		chain    int // follow-ups each event schedules
		chainGap Duration
	}
	for seed := uint64(100); seed < 110; seed++ {
		rng := NewRNG(seed)
		plans := make([]plan, 120)
		for i := range plans {
			plans[i] = plan{
				d:        Duration(rng.IntRange(1, 5000)) * Microsecond,
				chain:    rng.Intn(3),
				chainGap: Duration(rng.IntRange(1, 300)) * Microsecond,
			}
		}

		// Reference replay: each fire schedules its chain followers,
		// with follower labels allocated in fire order.
		ref := &refKernel{}
		var want []int
		byLabel := map[int]plan{}
		for i, p := range plans {
			ref.schedule(p.d, 0, i)
			byLabel[i] = p
		}
		nextLabel := len(plans)
		for len(ref.queue) > 0 {
			e := heap.Pop(&ref.queue).(*refEvent)
			if e.canceled {
				continue
			}
			ref.now = e.at
			want = append(want, e.label)
			p := byLabel[e.label]
			for c := 0; c < p.chain; c++ {
				child := plan{d: p.chainGap, chain: 0}
				ce := ref.schedule(child.d, 0, nextLabel)
				byLabel[ce.label] = child
				nextLabel++
			}
		}

		// Indexed kernel with real nested callbacks.
		k := NewKernel(seed)
		var got []int
		next := len(plans)
		var fire func(label int, p plan) func()
		fire = func(label int, p plan) func() {
			return func() {
				got = append(got, label)
				for c := 0; c < p.chain; c++ {
					child := plan{d: p.chainGap}
					k.Schedule(child.d, fire(next, child))
					next++
				}
			}
		}
		for i, p := range plans {
			k.Schedule(p.d, fire(i, p))
		}
		k.Run()

		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: nested divergence at %d: got %d want %d", seed, i, got[i], want[i])
			}
		}
	}
}
