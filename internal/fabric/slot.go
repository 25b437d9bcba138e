package fabric

import "fmt"

// SlotState is the lifecycle of a reconfigurable slot.
type SlotState int

const (
	// SlotEmpty means no bitstream is resident.
	SlotEmpty SlotState = iota
	// SlotLoading means a partial reconfiguration is in flight.
	SlotLoading
	// SlotLoaded means a bitstream is resident and the slot is idle.
	SlotLoaded
	// SlotBusy means the resident circuit is executing a batch item.
	SlotBusy
)

func (s SlotState) String() string {
	switch s {
	case SlotEmpty:
		return "empty"
	case SlotLoading:
		return "loading"
	case SlotLoaded:
		return "loaded"
	case SlotBusy:
		return "busy"
	default:
		return fmt.Sprintf("SlotState(%d)", int(s))
	}
}

// Slot is one reconfigurable region on a board. The scheduler owns all
// transitions; Slot only validates them.
type Slot struct {
	ID int
	// Class is the slot's size class from the board's platform.
	Class SlotClass
	state SlotState

	// failed marks a fault-injected region: the slot keeps its
	// lifecycle state (an in-flight load still completes its PCAP
	// transfer) but is unusable until Recover.
	failed bool

	// Resident identifies the loaded bitstream (opaque to fabric);
	// nil when empty or loading.
	Resident any
	// Pending identifies the bitstream being loaded during SlotLoading.
	Pending any

	// empty is the owning board's allocatable-slot counter for this
	// slot's class (nil for a slot built outside a board).
	empty *int
}

// allocatable reports whether the slot counts as empty on its board:
// nothing resident or loading, and not failed.
func (s *Slot) allocatable() bool { return s.state == SlotEmpty && !s.failed }

// set moves the slot to state and keeps the board counter in step.
func (s *Slot) set(state SlotState) {
	was := s.allocatable()
	s.state = state
	s.recount(was)
}

// recount adjusts the board counter after a transition that may have
// changed allocatable() from was.
func (s *Slot) recount(was bool) {
	if s.empty == nil {
		return
	}
	if now := s.allocatable(); now != was {
		if now {
			*s.empty++
		} else {
			*s.empty--
		}
	}
}

// State returns the current lifecycle state.
func (s *Slot) State() SlotState { return s.state }

// Free reports whether the slot is neither loading nor executing.
// Failed slots are never free: allocation and eviction paths skip
// them until Recover.
func (s *Slot) Free() bool {
	return !s.failed && (s.state == SlotEmpty || s.state == SlotLoaded)
}

// Failed reports whether the slot is fault-injected out of service.
func (s *Slot) Failed() bool { return s.failed }

// Fail marks the slot out of service. The caller (the engine) owns
// the teardown of any occupant: executing/loaded stages are evicted
// synchronously; an in-flight load keeps the slot in SlotLoading and
// the PR completion callback finishes the teardown via AbortLoad.
func (s *Slot) Fail() {
	was := s.allocatable()
	s.failed = true
	s.recount(was)
}

// Recover returns a failed slot to service. Occupancy teardown has
// already happened at Fail time (or is pending on an in-flight load's
// completion), so the region comes back empty and allocatable.
func (s *Slot) Recover() {
	was := s.allocatable()
	s.failed = false
	s.recount(was)
}

// AbortLoad cancels an in-flight partial reconfiguration:
// SlotLoading -> SlotEmpty with nothing resident. Legal regardless of
// the failed flag — it is exactly how a load into a region that died
// mid-transfer (or whose app crashed during a retry backoff) is torn
// down when its PCAP job completes.
func (s *Slot) AbortLoad() error {
	if s.state != SlotLoading {
		return fmt.Errorf("fabric: slot %d not loading (state %v); cannot abort", s.ID, s.state)
	}
	s.set(SlotEmpty)
	s.Resident = nil
	s.Pending = nil
	return nil
}

// Scrub force-evicts a dead region's occupant: SlotLoaded/SlotBusy ->
// SlotEmpty regardless of the failed flag. The engine uses it when
// tearing down the victim of a slot failure — Clear is gated on
// Free(), which a failed slot never satisfies, and skipping the
// teardown would leave a stale resident that the allocator can never
// reclaim. An in-flight load cannot be scrubbed; it finishes its PCAP
// transfer and tears down via AbortLoad.
func (s *Slot) Scrub() error {
	if s.state == SlotLoading {
		return fmt.Errorf("fabric: slot %d loading; teardown must wait for AbortLoad", s.ID)
	}
	s.set(SlotEmpty)
	s.Resident = nil
	s.Pending = nil
	return nil
}

// BeginLoad transitions the slot into SlotLoading. The previous resident
// circuit is evicted immediately (the DFX decoupler isolates the region
// for the whole load).
func (s *Slot) BeginLoad(pending any) error {
	if s.state == SlotLoading {
		return fmt.Errorf("fabric: slot %d already loading", s.ID)
	}
	if s.state == SlotBusy {
		return fmt.Errorf("fabric: slot %d busy; cannot reconfigure mid-item", s.ID)
	}
	s.set(SlotLoading)
	s.Resident = nil
	s.Pending = pending
	return nil
}

// CompleteLoad transitions SlotLoading -> SlotLoaded.
func (s *Slot) CompleteLoad() error {
	if s.state != SlotLoading {
		return fmt.Errorf("fabric: slot %d not loading (state %v)", s.ID, s.state)
	}
	s.set(SlotLoaded)
	s.Resident = s.Pending
	s.Pending = nil
	return nil
}

// BeginExec transitions SlotLoaded -> SlotBusy. A failed region
// executes nothing.
func (s *Slot) BeginExec() error {
	if s.failed {
		return fmt.Errorf("fabric: slot %d failed; cannot execute", s.ID)
	}
	if s.state != SlotLoaded {
		return fmt.Errorf("fabric: slot %d cannot execute (state %v)", s.ID, s.state)
	}
	s.set(SlotBusy)
	return nil
}

// CompleteExec transitions SlotBusy -> SlotLoaded.
func (s *Slot) CompleteExec() error {
	if s.state != SlotBusy {
		return fmt.Errorf("fabric: slot %d not executing (state %v)", s.ID, s.state)
	}
	s.set(SlotLoaded)
	return nil
}

// Clear evicts any resident bitstream, returning the slot to SlotEmpty.
// Only legal when the slot is free.
func (s *Slot) Clear() error {
	if !s.Free() {
		return fmt.Errorf("fabric: slot %d cannot clear (state %v)", s.ID, s.state)
	}
	s.set(SlotEmpty)
	s.Resident = nil
	s.Pending = nil
	return nil
}
