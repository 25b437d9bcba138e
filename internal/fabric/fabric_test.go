package fabric

import (
	"testing"
	"testing/quick"
)

func TestResVecArithmetic(t *testing.T) {
	a := ResVec{LUT: 100, FF: 200, DSP: 10, BRAM: 5}
	b := ResVec{LUT: 50, FF: 100, DSP: 5, BRAM: 2}
	sum := a.Add(b)
	if sum != (ResVec{150, 300, 15, 7}) {
		t.Fatalf("Add: %v", sum)
	}
	diff := sum.Sub(b)
	if diff != a {
		t.Fatalf("Sub not inverse of Add: %v", diff)
	}
	if !diff.NonNegative() {
		t.Fatal("NonNegative false for positive vec")
	}
	if !(ResVec{}).IsZero() {
		t.Fatal("zero vec not zero")
	}
	neg := b.Sub(a)
	if neg.NonNegative() {
		t.Fatal("NonNegative true for negative vec")
	}
}

// Property: Add is commutative and Sub undoes Add.
func TestResVecAddProperties(t *testing.T) {
	f := func(a1, a2, a3, a4, b1, b2, b3, b4 int16) bool {
		a := ResVec{int(a1), int(a2), int(a3), int(a4)}
		b := ResVec{int(b1), int(b2), int(b3), int(b4)}
		return a.Add(b) == b.Add(a) && a.Add(b).Sub(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResVecScale(t *testing.T) {
	a := ResVec{LUT: 100, FF: 200, DSP: 10, BRAM: 4}
	half := a.Scale(0.5)
	if half != (ResVec{50, 100, 5, 2}) {
		t.Fatalf("Scale(0.5): %v", half)
	}
	// Scale rounds to nearest.
	odd := ResVec{LUT: 3}.Scale(0.5)
	if odd.LUT != 2 {
		t.Fatalf("rounding: got %d", odd.LUT)
	}
}

// Negative components round with math.Round semantics (toward the
// nearest integer, halves away from zero) — the old int(x*f+0.5)
// truncation rounded negatives toward +infinity (e.g. -3 * 0.5 -> -1).
func TestResVecScaleNegativeRounding(t *testing.T) {
	neg := ResVec{LUT: -3, FF: -100, DSP: -10, BRAM: -5}
	got := neg.Scale(0.5)
	want := ResVec{LUT: -2, FF: -50, DSP: -5, BRAM: -3}
	if got != want {
		t.Fatalf("Scale(0.5) on negatives: got %v, want %v", got, want)
	}
	if r := (ResVec{LUT: -1}).Scale(0.4); r.LUT != 0 {
		t.Fatalf("-1 * 0.4 rounded to %d, want 0", r.LUT)
	}
	if r := (ResVec{LUT: -7}).Scale(0.1); r.LUT != -1 {
		t.Fatalf("-7 * 0.1 rounded to %d, want -1", r.LUT)
	}
}

func TestFitsIn(t *testing.T) {
	cap := LittleSlotCap
	if !(ResVec{LUT: cap.LUT, FF: cap.FF, DSP: cap.DSP, BRAM: cap.BRAM}).FitsIn(cap) {
		t.Fatal("exact fit rejected")
	}
	over := cap
	over.LUT++
	if over.FitsIn(cap) {
		t.Fatal("oversubscribed LUT accepted")
	}
}

func TestUtilization(t *testing.T) {
	half := ResVec{LUT: LittleSlotCap.LUT / 2, FF: LittleSlotCap.FF / 4}
	lut, ff := half.Utilization(LittleSlotCap)
	if lut < 0.49 || lut > 0.51 {
		t.Fatalf("LUT util %v", lut)
	}
	if ff < 0.24 || ff > 0.26 {
		t.Fatalf("FF util %v", ff)
	}
	// Zero capacity yields zero, not a division panic.
	l, f := half.Utilization(ResVec{})
	if l != 0 || f != 0 {
		t.Fatal("zero-capacity utilization not zero")
	}
}

func TestMaxRatio(t *testing.T) {
	use := ResVec{LUT: 10, FF: 80, DSP: 0, BRAM: 0}
	cap := ResVec{LUT: 100, FF: 100, DSP: 10, BRAM: 10}
	if r := use.MaxRatio(cap); r != 0.8 {
		t.Fatalf("MaxRatio %v, want 0.8 (FF bound)", r)
	}
}

func TestBigSlotIsTwiceLittle(t *testing.T) {
	if BigSlotCap.LUT != 2*LittleSlotCap.LUT || BigSlotCap.FF != 2*LittleSlotCap.FF ||
		BigSlotCap.DSP != 2*LittleSlotCap.DSP || BigSlotCap.BRAM != 2*LittleSlotCap.BRAM {
		t.Fatal("Big slot capacity is not exactly twice Little (paper requirement)")
	}
}

func TestSlotsFitDevice(t *testing.T) {
	// 8 Little slots (or 2 Big + 4 Little) plus a static region must
	// fit the ZCU216 fabric.
	var eight ResVec
	for i := 0; i < 8; i++ {
		eight = eight.Add(LittleSlotCap)
	}
	if !eight.FitsIn(ZCU216Total) {
		t.Fatal("Only.Little floorplan exceeds the device")
	}
	share := float64(eight.LUT) / float64(ZCU216Total.LUT)
	if share > 0.85 {
		t.Fatalf("no room left for the static region: slots use %.0f%%", share*100)
	}
}

func TestSlotStateMachine(t *testing.T) {
	s := &Slot{ID: 0, Class: LittleClass}
	if s.State() != SlotEmpty || !s.Free() {
		t.Fatal("new slot not empty/free")
	}
	if err := s.BeginLoad("bits"); err != nil {
		t.Fatal(err)
	}
	if s.State() != SlotLoading || s.Free() {
		t.Fatal("loading slot must not be free")
	}
	// Double-load and exec-while-loading are illegal.
	if err := s.BeginLoad("other"); err == nil {
		t.Fatal("double BeginLoad allowed")
	}
	if err := s.BeginExec(); err == nil {
		t.Fatal("exec during load allowed")
	}
	if err := s.CompleteLoad(); err != nil {
		t.Fatal(err)
	}
	if s.State() != SlotLoaded || s.Resident != "bits" {
		t.Fatalf("after load: %v resident=%v", s.State(), s.Resident)
	}
	if err := s.BeginExec(); err != nil {
		t.Fatal(err)
	}
	if s.State() != SlotBusy || s.Free() {
		t.Fatal("busy slot must not be free")
	}
	// Reconfiguring a busy slot is illegal (DFX cannot interrupt).
	if err := s.BeginLoad("x"); err == nil {
		t.Fatal("BeginLoad on busy slot allowed")
	}
	if err := s.CompleteExec(); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if s.State() != SlotEmpty || s.Resident != nil {
		t.Fatal("Clear did not empty slot")
	}
}

func TestSlotIllegalTransitions(t *testing.T) {
	s := &Slot{}
	if err := s.CompleteLoad(); err == nil {
		t.Fatal("CompleteLoad on empty slot allowed")
	}
	if err := s.BeginExec(); err == nil {
		t.Fatal("BeginExec on empty slot allowed")
	}
	if err := s.CompleteExec(); err == nil {
		t.Fatal("CompleteExec on empty slot allowed")
	}
}

func TestBuiltinPlatformBoards(t *testing.T) {
	cases := []struct {
		platform string
		big      int
		little   int
	}{
		{ZCU216OnlyLittle, 0, 8},
		{ZCU216BigLittle, 2, 4},
		{ZCU216Monolithic, 0, MonolithicStageRegions},
		{ZCU216OnlyBig, 4, 0},
	}
	for _, c := range cases {
		b := NewBoard(0, MustPlatform(c.platform))
		if got := b.Count("Big"); got != c.big {
			t.Errorf("%v: %d big slots, want %d", c.platform, got, c.big)
		}
		if got := b.Count("Little"); got != c.little {
			t.Errorf("%v: %d little slots, want %d", c.platform, got, c.little)
		}
		// Slot IDs are unique and ordered.
		for i, s := range b.Slots {
			if s.ID != i {
				t.Errorf("%v: slot %d has ID %d", c.platform, i, s.ID)
			}
		}
	}
}

// TestNewBoardAllocs pins board construction at a constant allocation
// count, independent of the slot count: the board, its per-class empty
// counters, one slot array and the Slots index into it.
func TestNewBoardAllocs(t *testing.T) {
	const want = 4
	for _, name := range []string{ZCU216OnlyLittle, ZCU216BigLittle} {
		p := MustPlatform(name)
		allocs := testing.AllocsPerRun(100, func() { NewBoard(0, p) })
		if allocs != want {
			t.Errorf("%s (%d slots): NewBoard allocates %.0f times, want %d",
				name, len(NewBoard(0, p).Slots), allocs, want)
		}
	}
}

// TestSlabBoards checks boards built in place from one shared slab:
// the slab is the only allocation however many boards it backs, and
// each board matches a NewBoard of its platform, with slots and class
// counters of its own.
func TestSlabBoards(t *testing.T) {
	ps := []*Platform{MustPlatform(ZCU216BigLittle), MustPlatform(ZCU216OnlyLittle)}
	boards := make([]Board, 64)
	build := func() {
		slots, classes := 0, 0
		for i := range boards {
			p := ps[i%len(ps)]
			slots, classes = slots+p.SlotCount(), classes+len(p.Classes)
		}
		s := MakeSlab(slots, classes)
		for i := range boards {
			boards[i].Init(i, ps[i%len(ps)], &s)
		}
	}
	if allocs := testing.AllocsPerRun(20, build); allocs != 3 {
		t.Errorf("building %d boards from a slab allocates %.0f times, want 3", len(boards), allocs)
	}
	boards[0].Slots[0].Fail()
	for i := range boards {
		b, want := &boards[i], NewBoard(i, ps[i%len(ps)])
		if b.ID != i || len(b.Slots) != len(want.Slots) {
			t.Fatalf("board %d: ID %d, %d slots; want ID %d, %d slots", i, b.ID, len(b.Slots), i, len(want.Slots))
		}
		for j, s := range b.Slots {
			if s.ID != j || s.Class != want.Slots[j].Class {
				t.Errorf("board %d slot %d: ID %d class %s, want ID %d class %s", i, j, s.ID, s.Class.Name, j, want.Slots[j].Class.Name)
			}
		}
		for _, c := range b.Platform.Classes {
			n := want.CountEmpty(c.Name)
			if i == 0 && c == b.Slots[0].Class {
				n-- // the failed slot counts on its own board only
			}
			if got := b.CountEmpty(c.Name); got != n {
				t.Errorf("board %d class %s: %d empty, want %d", i, c.Name, got, n)
			}
		}
	}
}

func TestBoardFreeVsEmpty(t *testing.T) {
	b := NewBoard(0, MustPlatform(ZCU216OnlyLittle))
	s := b.Slots[0]
	if err := s.BeginLoad("x"); err != nil {
		t.Fatal(err)
	}
	if err := s.CompleteLoad(); err != nil {
		t.Fatal(err)
	}
	// Loaded slot: free to reconfigure, but NOT empty (it belongs to
	// the app whose circuit is resident).
	if b.CountFree("Little") != 8 {
		t.Fatalf("CountFree %d, want 8", b.CountFree("Little"))
	}
	if b.CountEmpty("Little") != 7 {
		t.Fatalf("CountEmpty %d, want 7", b.CountEmpty("Little"))
	}
	if b.FirstEmpty("Little") != b.Slots[1] {
		t.Fatal("FirstEmpty returned the loaded slot")
	}
}

// TestBoardEmptyCounter walks one slot through every transition that
// changes allocatability — including the fault paths (Fail, Recover,
// Scrub, AbortLoad) — and checks the O(1) counter against a recount
// after each step.
func TestBoardEmptyCounter(t *testing.T) {
	b := NewBoard(0, MustPlatform(ZCU216BigLittle))
	s := b.Slots[len(b.Slots)-1] // a Little slot
	check := func(step string) {
		t.Helper()
		for _, class := range []string{"Big", "Little"} {
			n := 0
			for _, x := range b.Slots {
				if x.Class.Name == class && x.State() == SlotEmpty && !x.Failed() {
					n++
				}
			}
			if got := b.CountEmpty(class); got != n {
				t.Fatalf("%s: CountEmpty(%s) = %d, recount %d", step, class, got, n)
			}
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check("new")
	must(s.BeginLoad("x"))
	check("BeginLoad")
	must(s.CompleteLoad())
	must(s.BeginExec())
	check("BeginExec")
	s.Fail()
	check("Fail busy")
	must(s.Scrub())
	check("Scrub")
	s.Recover()
	check("Recover")
	if b.CountEmpty("Little") != 4 || b.FirstEmpty("Little") != b.Slots[2] {
		t.Fatal("recovered slot not allocatable")
	}
	must(s.BeginLoad("y"))
	s.Fail()
	check("Fail loading")
	must(s.AbortLoad())
	check("AbortLoad failed")
	s.Fail() // already failed: no double count
	s.Recover()
	s.Recover()
	check("Recover twice")
	must(s.BeginLoad("z"))
	must(s.AbortLoad())
	check("AbortLoad")
	if b.CountEmpty("Medium") != 0 {
		t.Fatal("unknown class has empty slots")
	}
}

// TestBoardCapacityTotal checks that a platform's slot capacity is the
// sum over the slots a board built from it lays out.
func TestBoardCapacityTotal(t *testing.T) {
	p := MustPlatform(ZCU216BigLittle)
	total := p.SlotCapacity()
	want := BigSlotCap.Scale(2).Add(LittleSlotCap.Scale(4))
	if total != want {
		t.Fatalf("capacity total %v, want %v", total, want)
	}
	var slots ResVec
	for _, s := range NewBoard(0, p).Slots {
		slots = slots.Add(s.Class.Cap)
	}
	if slots != total {
		t.Fatalf("board slots sum to %v, platform reports %v", slots, total)
	}
}

func TestStringers(t *testing.T) {
	if LittleClass.Name != "Little" || BigClass.Name != "Big" {
		t.Fatal("slot class names")
	}
	if MustPlatform(ZCU216OnlyLittle).Title != "Only.Little" ||
		MustPlatform(ZCU216BigLittle).Title != "Big.Little" {
		t.Fatal("platform titles")
	}
	for _, s := range []SlotState{SlotEmpty, SlotLoading, SlotLoaded, SlotBusy} {
		if s.String() == "" {
			t.Fatal("empty SlotState string")
		}
	}
}
