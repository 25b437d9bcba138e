package sim

// Job is a unit of work submitted to a Server: it occupies the server
// for Cost, then Done runs (still inside the kernel, at completion time).
type Job struct {
	// Name identifies the job in traces and statistics.
	Name string
	// Cost is the service time the job occupies the server for.
	Cost Duration
	// Start observes the job entering service (after any queueing
	// delay), with the queueing wait as argument. May be nil.
	Start Starter
	// Done fires at completion. May be nil.
	Done Handler
	// Class tags the job for statistics (e.g. "pr", "launch", "sched").
	Class string

	enqueuedAt Time
	canceled   bool
	// pooled marks jobs built by SubmitFunc: the server recycles them
	// once they complete (or are skipped after a Cancel), so steady-state
	// submission allocates nothing. Pooled handles must not be canceled
	// after their job completed — the object may already serve a newer
	// submission.
	pooled bool
	// next links the job into its server's queue while it waits, and a
	// recycled pooled job into its kernel's free list.
	next *Job
}

// jobBlock is how many pooled jobs a kernel allocates at once when its
// free list runs dry.
const jobBlock = 4

// Starter observes a job entering service; wait is how long it queued.
type Starter interface {
	Started(wait Duration)
}

// Cancel marks a queued job so the server skips it. Canceling the job
// currently in service has no effect (hardware can't abort a PCAP load).
func (j *Job) Cancel() { j.canceled = true }

// ServerStats aggregates what a Server has processed.
type ServerStats struct {
	Completed  uint64            // jobs finished
	BusyTime   Duration          // total time in service
	WaitTime   Duration          // total time jobs spent queued
	Waited     uint64            // jobs that had to queue (wait > 0)
	ByClass    map[string]uint64 // completions per class
	WaitByName map[string]Duration
}

// Server is a non-preemptive FIFO single server in virtual time: CPU
// cores, the PCAP port, and the cross-board link are all Servers.
// Waiting jobs form a list linked through Job.next, so queueing needs
// no storage of its own.
type Server struct {
	_     noCopy
	k     *Kernel
	name  string
	busy  bool
	cur   *Job
	head  *Job        // next queued job, or nil
	tail  *Job        // last queued job; meaningful only when head != nil
	stats ServerStats // ByClass and WaitByName stay nil; see classes
	pri   int32       // event priority of completion events (see SetPriority)

	// classes holds the per-class completion and wait counters behind
	// ServerStats.ByClass/WaitByName. A server sees a handful of job
	// classes, so a linear scan of a slice beats a string-keyed map
	// write per job; Stats builds the maps.
	classes []classStats

	// IdleHook, if set, runs whenever the server transitions to idle.
	IdleHook func()
}

// serverFinish is the completion event of the job in service: the
// server is non-preemptive, so the job finishing is always s.cur, and
// the server itself is the event's state. Scheduling it allocates
// nothing.
type serverFinish Server

func (f *serverFinish) Fire() {
	s := (*Server)(f)
	s.finish(s.cur)
}

// classCap is the class table's capacity on first use. The servers of a
// VersaSlot run see one or two job classes each (the PR core's "pr" and
// "full-reconfig", the scheduler core's "sched" and "launch"), so the
// table never grows in a run.
const classCap = 4

// classStats accumulates one job class's share of ServerStats.
type classStats struct {
	class     string
	completed uint64
	wait      Duration
}

// NewServer returns an idle server attached to kernel k.
func NewServer(k *Kernel, name string) *Server {
	s := new(Server)
	s.Init(k, name)
	return s
}

// Init makes a zero Server an idle server attached to kernel k, in
// place, so owners can hold servers inline. A server must not be
// copied after its first job.
func (s *Server) Init(k *Kernel, name string) {
	s.k, s.name = k, name
}

// class returns the counters of the named job class, adding them on
// first use.
func (s *Server) class(name string) *classStats {
	for i := range s.classes {
		if s.classes[i].class == name {
			return &s.classes[i]
		}
	}
	if s.classes == nil {
		s.classes = make([]classStats, 0, classCap)
	}
	s.classes = append(s.classes, classStats{class: name})
	return &s.classes[len(s.classes)-1]
}

// Name returns the server's identifier.
func (s *Server) Name() string { return s.name }

// SetPriority sets the kernel priority of the server's completion
// events: lower priorities run first among events at the same instant.
// The farm's rack link uses a negative priority so its deliveries order
// ahead of board-local events at the same instant.
func (s *Server) SetPriority(p int32) { s.pri = p }

// Busy reports whether the server is currently in service.
func (s *Server) Busy() bool { return s.busy }

// PendingByClass returns how many jobs of the class are pending: queued
// plus the one in service if it matches.
func (s *Server) PendingByClass(class string) int {
	n := 0
	if s.cur != nil && s.cur.Class == class {
		n++
	}
	for j := s.head; j != nil; j = j.next {
		if !j.canceled && j.Class == class {
			n++
		}
	}
	return n
}

// Stats returns a copy of the server's accumulated statistics. A class
// appears in ByClass once a job of it completed, and in WaitByName once
// one had to queue.
func (s *Server) Stats() ServerStats {
	out := s.stats
	out.ByClass = make(map[string]uint64, len(s.classes))
	out.WaitByName = make(map[string]Duration, len(s.classes))
	for _, c := range s.classes {
		if c.completed > 0 {
			out.ByClass[c.class] = c.completed
		}
		if c.wait > 0 {
			out.WaitByName[c.class] = c.wait
		}
	}
	return out
}

// WaitOf returns the total time jobs of the class spent queued:
// Stats().WaitByName[class] without building the maps.
func (s *Server) WaitOf(class string) Duration {
	for _, c := range s.classes {
		if c.class == class {
			return c.wait
		}
	}
	return 0
}

// Submit enqueues the job; it starts immediately if the server is idle.
func (s *Server) Submit(j *Job) {
	if j.Cost < 0 {
		panic("sim: negative job cost")
	}
	j.enqueuedAt = s.k.Now()
	if s.busy {
		if s.head == nil {
			s.head = j
		} else {
			s.tail.next = j
		}
		s.tail = j
		return
	}
	s.start(j)
}

// SubmitFunc is a convenience wrapper building a Job from its parts.
// The job object is drawn from the kernel's free list of pooled jobs
// and returns to it at completion, so steady-state submission allocates nothing;
// the returned handle is only valid until the job completes.
func (s *Server) SubmitFunc(name, class string, cost Duration, done func()) *Job {
	return s.SubmitPooled(name, class, cost, nil, funcHandler(done))
}

// SubmitPooled is SubmitFunc with a Handler completion and an optional
// Start hook, for hot paths that submit without allocating anything.
func (s *Server) SubmitPooled(name, class string, cost Duration, start Starter, done Handler) *Job {
	j := s.getJob()
	j.Name, j.Class, j.Cost, j.Start, j.Done = name, class, cost, start, done
	s.Submit(j)
	return j
}

// getJob takes a pooled job off the kernel's free list, refilling the
// list with a fresh block when it is empty. The list is per kernel: a
// server only runs on its own kernel's goroutine, so the list has a
// single writer even when a farm's kernels run in parallel.
func (s *Server) getJob() *Job {
	k := s.k
	if k.jobs == nil {
		b := new([jobBlock]Job)
		for i := range b {
			b[i].pooled = true
			if i+1 < jobBlock {
				b[i].next = &b[i+1]
			}
		}
		k.jobs = &b[0]
	}
	j := k.jobs
	k.jobs, j.next = j.next, nil
	return j
}

// putJob returns a pooled job to the kernel's free list; caller-owned
// jobs are left alone.
func (s *Server) putJob(j *Job) {
	if !j.pooled {
		return
	}
	*j = Job{pooled: true, next: s.k.jobs}
	s.k.jobs = j
}

func (s *Server) start(j *Job) {
	s.busy = true
	s.cur = j
	wait := s.k.Now().Sub(j.enqueuedAt)
	if wait > 0 {
		s.stats.WaitTime += wait
		s.stats.Waited++
		s.class(j.Class).wait += wait
	}
	if j.Start != nil {
		j.Start.Started(wait)
	}
	s.k.schedule(j.Cost, s.pri, (*serverFinish)(s))
}

func (s *Server) finish(j *Job) {
	s.stats.Completed++
	s.stats.BusyTime += j.Cost
	s.class(j.Class).completed++
	s.cur = nil
	s.busy = false
	done := j.Done
	s.putJob(j)
	if done != nil {
		done.Fire()
	}
	// The Done callback may have submitted new work already.
	if !s.busy {
		s.dispatchNext()
	}
}

func (s *Server) dispatchNext() {
	for s.head != nil {
		j := s.head
		s.head, j.next = j.next, nil
		if j.canceled {
			s.putJob(j)
			continue
		}
		s.start(j)
		return
	}
	if s.IdleHook != nil {
		s.IdleHook()
	}
}
