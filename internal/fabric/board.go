package fabric

// Board is the PL side of one FPGA: its platform template materialized
// into slots. Slot IDs follow the platform's class declaration order
// (Counts[0] slots of Classes[0] first, and so on).
type Board struct {
	ID       int
	Platform *Platform
	Slots    []*Slot

	// empty[i] counts the allocatable (SlotEmpty and not failed) slots
	// of Platform.Classes[i]. Every slot holds a pointer to its class's
	// counter and adjusts it on each transition, so CountEmpty is O(1).
	empty []int
}

// Slab is storage for boards built in place: one slice each of slots,
// slot pointers and class counters, which Board.Init takes from the
// front. Sized up front for a run of boards, it makes their fabric
// state three allocations however many boards there are.
type Slab struct {
	slots []Slot
	view  []*Slot
	empty []int
}

// MakeSlab returns a slab with room for slots slots and classes class
// counters in total: the sums of SlotCount and len(Classes) over the
// platforms of the boards it will back.
func MakeSlab(slots, classes int) Slab {
	return Slab{
		slots: make([]Slot, slots),
		view:  make([]*Slot, slots),
		empty: make([]int, classes),
	}
}

// Fits reports whether s still has room for a board of platform p.
func (s *Slab) Fits(p *Platform) bool {
	return len(s.slots) >= p.SlotCount() && len(s.empty) >= len(p.Classes)
}

// NewBoard materializes a platform into a new board. The platform must
// be valid (registered platforms are; custom ones validate on build).
// The board and its one-board slab take four allocations, whatever its
// slot count; builders of many boards share a slab through Init.
func NewBoard(id int, p *Platform) *Board {
	s := MakeSlab(p.SlotCount(), len(p.Classes))
	b := new(Board)
	b.Init(id, p, &s)
	return b
}

// Init materializes a platform into b, in place, taking the slots,
// their pointer view and the class counters from the front of s; it
// panics if s is short. Slot IDs index Slots, so the view is in ID
// order.
func (b *Board) Init(id int, p *Platform, s *Slab) {
	total := p.SlotCount()
	slots, view, empty := s.slots[:total:total], s.view[:total:total], s.empty[:len(p.Classes):len(p.Classes)]
	s.slots, s.view, s.empty = s.slots[total:], s.view[total:], s.empty[len(p.Classes):]
	*b = Board{ID: id, Platform: p, Slots: view, empty: empty}
	slotID := 0
	for i, class := range p.Classes {
		for n := 0; n < p.Counts[i]; n++ {
			slots[slotID] = Slot{ID: slotID, Class: class, empty: &empty[i]}
			view[slotID] = &slots[slotID]
			slotID++
		}
		empty[i] = p.Counts[i]
	}
}

// SlotsOf returns the board's slots of the given class, in ID order.
func (b *Board) SlotsOf(class string) []*Slot {
	var out []*Slot
	for _, s := range b.Slots {
		if s.Class.Name == class {
			out = append(out, s)
		}
	}
	return out
}

// CountFree returns the number of free slots of the given class.
func (b *Board) CountFree(class string) int {
	n := 0
	for _, s := range b.Slots {
		if s.Class.Name == class && s.Free() {
			n++
		}
	}
	return n
}

// FirstEmpty returns the lowest-ID allocatable slot of the given class
// — no resident or loading circuit, not failed — or nil. Allocation
// must draw from these: a Loaded slot is free to *reconfigure* but
// still belongs to the app whose stage is resident.
func (b *Board) FirstEmpty(class string) *Slot {
	if b.CountEmpty(class) == 0 {
		return nil
	}
	for _, s := range b.Slots {
		if s.Class.Name == class && s.allocatable() {
			return s
		}
	}
	return nil
}

// CountEmpty returns the number of allocatable slots of the given
// class (the slots FirstEmpty can return). It reads a counter the
// slots keep current, so it is O(1) in the slot count.
func (b *Board) CountEmpty(class string) int {
	for i, c := range b.Platform.Classes {
		if c.Name == class {
			return b.empty[i]
		}
	}
	return 0
}

// Count returns the total number of slots of the given class.
func (b *Board) Count(class string) int {
	n := 0
	for _, s := range b.Slots {
		if s.Class.Name == class {
			n++
		}
	}
	return n
}
