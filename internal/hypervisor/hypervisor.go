package hypervisor

import (
	"strconv"
	"sync"

	"versaslot/internal/sim"
)

// CoreModel selects the control-plane topology.
type CoreModel int

const (
	// SingleCore runs scheduling, launches and PR on one ARM core
	// (Nimblock/DML-style; the PCAP load blocks everything).
	SingleCore CoreModel = iota
	// DualCore dedicates a second core to the PR server (VersaSlot).
	DualCore
)

func (m CoreModel) String() string {
	if m == DualCore {
		return "dual-core"
	}
	return "single-core"
}

// Cores is the PS control plane of one board.
type Cores struct {
	Model CoreModel
	// Sched executes scheduler passes and batch launches.
	Sched *sim.Server
	// PR executes bitstream loads. In SingleCore mode PR == Sched:
	// loads compete with launches for the same core.
	PR *sim.Server
	// OCM counts mailbox traffic between the two cores (status
	// messages and asynchronous PR requests).
	OCM MailboxStats

	// sched and pr hold the servers Sched and PR point at (pr stays
	// unused in SingleCore mode).
	sched, pr sim.Server
}

// MailboxStats counts OCM mailbox messages.
type MailboxStats struct {
	PRRequests uint64 // scheduler -> PR server
	PRStatus   uint64 // PR server -> scheduler
}

// NewCores builds the control plane for a board.
func NewCores(k *sim.Kernel, model CoreModel, boardID int) *Cores {
	c := new(Cores)
	c.Init(k, model, boardID)
	return c
}

// Init builds the control plane in a zero Cores, with both servers
// held inside c; c must not be copied afterwards.
func (c *Cores) Init(k *sim.Kernel, model CoreModel, boardID int) {
	c.Model = model
	c.sched.Init(k, coreName(boardID, 0))
	c.Sched = &c.sched
	if model == DualCore {
		c.pr.Init(k, coreName(boardID, 1))
		c.PR = &c.pr
	} else {
		c.PR = c.Sched
	}
}

// Core names. A name is a pure function of its board and core index,
// and a fleet rebuilds the same boards run after run, so each name is
// formatted once per process and then served from this table; it grows
// only with distinct board IDs. A map under RWMutex serves concurrent
// RunMany workers without allocating.
var coreNames = struct {
	mu sync.RWMutex
	m  map[[2]int]string
}{m: make(map[[2]int]string)}

func coreName(board, core int) string {
	k := [2]int{board, core}
	coreNames.mu.RLock()
	name, ok := coreNames.m[k]
	coreNames.mu.RUnlock()
	if ok {
		return name
	}
	name = "board" + strconv.Itoa(board) + "/core" + strconv.Itoa(core)
	coreNames.mu.Lock()
	coreNames.m[k] = name
	coreNames.mu.Unlock()
	return name
}

// PostPRRequest accounts an async scheduler->PR-server message.
func (c *Cores) PostPRRequest() { c.OCM.PRRequests++ }

// PostPRStatus accounts a PR-server->scheduler completion message.
func (c *Cores) PostPRStatus() { c.OCM.PRStatus++ }
