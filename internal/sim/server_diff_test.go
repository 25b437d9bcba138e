package sim

import (
	"maps"
	"slices"
	"testing"
)

// refJob / refServer reimplement the server's original design — a
// slice FIFO with a head index, per-class maps and no job recycling —
// as the reference the list-linked, kernel-pooled Server is
// differentially tested against. The reference servers run on the
// container/heap reference kernel, one completion event label per
// server.
type refJob struct {
	id       int
	class    string
	cost     Duration
	enq      Time
	start    bool // record the queueing wait, as a Starter would
	chain    bool // submit a pooled follow-up from the completion
	canceled bool
	state    uint8 // jobQueued, jobInService or jobDone
}

const (
	jobQueued uint8 = iota
	jobInService
	jobDone
)

type refServer struct {
	d     *serverDiff
	index int
	pri   int32
	busy  bool
	cur   *refJob
	queue []*refJob
	head  int

	completed, waited  uint64
	busyTime, waitTime Duration
	byClass            map[string]uint64
	waitBy             map[string]Duration
	idles              int
}

func (s *refServer) submit(j *refJob) {
	j.enq = s.d.ref.now
	if s.busy {
		s.queue = append(s.queue, j)
		return
	}
	s.start(j)
}

func (s *refServer) start(j *refJob) {
	s.busy, s.cur, j.state = true, j, jobInService
	wait := s.d.ref.now.Sub(j.enq)
	if wait > 0 {
		s.waitTime += wait
		s.waited++
		s.waitBy[j.class] += wait
	}
	if j.start {
		s.d.wantStarts = append(s.d.wantStarts, startRec{s.index, j.id, wait})
	}
	s.d.ref.schedule(j.cost, s.pri, s.index)
}

func (s *refServer) finish() {
	j := s.cur
	s.completed++
	s.busyTime += j.cost
	s.byClass[j.class]++
	s.busy, s.cur, j.state = false, nil, jobDone
	s.d.wantDone = append(s.d.wantDone, doneRec{s.index, j.id})
	if j.chain {
		s.d.rsubmit(s.index, j.class, j.cost, j.start, false)
	}
	if s.busy {
		return
	}
	for s.head < len(s.queue) {
		next := s.queue[s.head]
		s.head++
		if next.canceled {
			next.state = jobDone
			continue
		}
		s.start(next)
		return
	}
	s.idles++
}

func (s *refServer) pending(class string) int {
	n := 0
	if s.cur != nil && s.cur.class == class {
		n++
	}
	for _, j := range s.queue[s.head:] {
		if !j.canceled && j.class == class {
			n++
		}
	}
	return n
}

// startRec and doneRec are entries of the Started and completion logs.
type startRec struct {
	server, id int
	wait       Duration
}

type doneRec struct{ server, id int }

// diffStarter records a job's queueing wait in the Started log.
type diffStarter struct {
	d          *serverDiff
	server, id int
}

func (s *diffStarter) Started(wait Duration) {
	s.d.gotStarts = append(s.d.gotStarts, startRec{s.server, s.id, wait})
}

// serverOp is one kind of server trace operation.
type serverOp uint8

const (
	sopPooled serverOp = iota // SubmitPooled on a server
	sopOwned                  // Submit of a caller-owned Job
	sopCancel                 // cancel a queued or in-service job
	sopStep                   // Step the kernel once
	numServerOps
)

// diffServers is how many servers share the kernel, and with it the
// pooled-job free list. Server 2's completions run at a lower priority.
const diffServers = 3

// diffClasses has one class more than a class table's first-use
// capacity, so the table also grows.
var diffClasses = []string{"pr", "launch", "sched", "exec", "link"}

// serverDiff drives one trace through kernel-backed Servers and the
// reference servers side by side. Job ids are handed out in submit
// order on each side, so they agree as long as the completion orders
// do.
type serverDiff struct {
	t     testing.TB
	k     *Kernel
	srv   [diffServers]Server
	idles [diffServers]int
	jobs  []*Job // kernel-side handle per job id

	ref  *refKernel
	rsrv [diffServers]*refServer
	refs []*refJob // reference job per id

	gotStarts, wantStarts []startRec
	gotDone, wantDone     []doneRec
}

func newServerDiff(t testing.TB) *serverDiff {
	d := &serverDiff{t: t, k: NewKernel(1), ref: &refKernel{}}
	d.ref.onFire = func(e *refEvent) { d.rsrv[e.label].finish() }
	for i := range d.srv {
		s := &d.srv[i]
		s.Init(d.k, diffClasses[i])
		s.IdleHook = func() { d.idles[i]++ }
		d.rsrv[i] = &refServer{d: d, index: i, byClass: map[string]uint64{}, waitBy: map[string]Duration{}}
		if i == diffServers-1 {
			s.SetPriority(-1)
			d.rsrv[i].pri = -1
		}
	}
	return d
}

// ksubmit submits a job to kernel-side server i: from the pool, or as
// a caller-owned Job. A chained job submits a pooled follow-up of the
// same class and cost from its completion.
func (d *serverDiff) ksubmit(i int, class string, cost Duration, start, chain, pooled bool) {
	id := len(d.jobs)
	var st Starter
	if start {
		st = &diffStarter{d, i, id}
	}
	done := Func(func() {
		d.gotDone = append(d.gotDone, doneRec{i, id})
		if chain {
			d.ksubmit(i, class, cost, start, false, true)
		}
	})
	s := &d.srv[i]
	var j *Job
	if pooled {
		j = s.SubmitPooled("job", class, cost, st, done)
	} else {
		j = &Job{Name: "job", Class: class, Cost: cost, Start: st, Done: done}
		s.Submit(j)
	}
	d.jobs = append(d.jobs, j)
}

func (d *serverDiff) rsubmit(i int, class string, cost Duration, start, chain bool) {
	j := &refJob{id: len(d.refs), class: class, cost: cost, start: start, chain: chain}
	d.refs = append(d.refs, j)
	d.rsrv[i].submit(j)
}

// apply runs one op, decoded from four bytes, on both sides and
// compares the observable state after it.
func (d *serverDiff) apply(n int, b []byte) {
	d.t.Helper()
	i := int(b[1]) % diffServers
	class := diffClasses[int(b[1]>>2)%len(diffClasses)]
	cost := Duration(b[2]%8) * Millisecond
	start, chain := b[3]&1 != 0, b[3]&2 != 0
	switch op := serverOp(b[0] % byte(numServerOps)); op {
	case sopPooled, sopOwned:
		d.ksubmit(i, class, cost, start, chain, op == sopPooled)
		d.rsubmit(i, class, cost, start, chain)
	case sopCancel:
		// Only jobs not yet completed: a pooled handle is invalid
		// once its job completes.
		var open []int
		for _, j := range d.refs {
			if j.state != jobDone {
				open = append(open, j.id)
			}
		}
		if len(open) > 0 {
			id := open[int(b[3])%len(open)]
			d.jobs[id].Cancel()
			d.refs[id].canceled = true
		}
	case sopStep:
		if got, want := d.k.Step(), d.ref.step(); got != want {
			d.fatalf(n, "Step = %v, reference %v", got, want)
		}
	}
	d.check(n)
}

func (d *serverDiff) fatalf(n int, format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("op %d: "+format, append([]any{n}, args...)...)
}

// check compares the clock, the completion and Started logs, and every
// server's Busy, PendingByClass, Stats, WaitOf and IdleHook count.
func (d *serverDiff) check(n int) {
	d.t.Helper()
	if d.k.Now() != d.ref.now {
		d.fatalf(n, "clock %v, reference %v", d.k.Now(), d.ref.now)
	}
	if !slices.Equal(d.gotDone, d.wantDone) {
		d.fatalf(n, "completions %v, reference %v", d.gotDone, d.wantDone)
	}
	if !slices.Equal(d.gotStarts, d.wantStarts) {
		d.fatalf(n, "starts %v, reference %v", d.gotStarts, d.wantStarts)
	}
	for i := range d.srv {
		s, r := &d.srv[i], d.rsrv[i]
		if s.Busy() != r.busy {
			d.fatalf(n, "server %d busy %v, reference %v", i, s.Busy(), r.busy)
		}
		if d.idles[i] != r.idles {
			d.fatalf(n, "server %d idle hook ran %d times, reference %d", i, d.idles[i], r.idles)
		}
		for _, c := range diffClasses {
			if got, want := s.PendingByClass(c), r.pending(c); got != want {
				d.fatalf(n, "server %d PendingByClass(%s) = %d, reference %d", i, c, got, want)
			}
			if got, want := s.WaitOf(c), r.waitBy[c]; got != want {
				d.fatalf(n, "server %d WaitOf(%s) = %v, reference %v", i, c, got, want)
			}
		}
		st := s.Stats()
		if st.Completed != r.completed || st.BusyTime != r.busyTime || st.WaitTime != r.waitTime || st.Waited != r.waited {
			d.fatalf(n, "server %d stats %+v, reference completed %d busy %v wait %v waited %d",
				i, st, r.completed, r.busyTime, r.waitTime, r.waited)
		}
		if !maps.Equal(st.ByClass, r.byClass) || !maps.Equal(st.WaitByName, r.waitBy) {
			d.fatalf(n, "server %d ByClass %v WaitByName %v, reference %v %v",
				i, st.ByClass, st.WaitByName, r.byClass, r.waitBy)
		}
	}
}

// diffServerTrace replays a trace (four bytes an op; a trailing
// partial op is ignored) through both sides, then drains both.
func diffServerTrace(t testing.TB, data []byte) {
	t.Helper()
	d := newServerDiff(t)
	n := 0
	for ; len(data) >= 4; data = data[4:] {
		d.apply(n, data)
		n++
	}
	d.k.Run()
	d.ref.run()
	d.check(n)
}

// genServerTrace builds a deterministic pseudo-random server trace:
// bursts of submits that queue behind each other, zero-cost and
// chained jobs, cancels, and steps that drain queues and refill the
// free list between bursts.
func genServerTrace(seed uint64, n int) []byte {
	rng := NewRNG(seed)
	b := make([]byte, 0, 4*n)
	for i := 0; i < n; i++ {
		var op serverOp
		switch r := rng.Intn(10); {
		case r < 3:
			op = sopPooled
		case r < 5:
			op = sopOwned
		case r < 6:
			op = sopCancel
		default:
			op = sopStep
		}
		b = append(b, byte(op), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return b
}

// FuzzServerDiff checks Server against the slice-backed reference:
// pooled and caller-owned submits over three servers sharing one
// kernel's job free list, cancels of queued and in-service jobs, and
// Steps, comparing completion order, Started waits, PendingByClass,
// Stats, WaitOf and IdleHook calls after every op. Any byte string
// decodes to a trace; the seed corpus also runs under go test.
//
//	go test -run '^$' -fuzz=FuzzServerDiff -fuzztime=10s ./internal/sim
func FuzzServerDiff(f *testing.F) {
	for seed := uint64(1); seed <= 25; seed++ {
		f.Add(genServerTrace(seed, 300))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 512
		if len(data) > maxOps*4 {
			data = data[:maxOps*4]
		}
		diffServerTrace(t, data)
	})
}
