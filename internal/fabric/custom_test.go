package fabric

import "testing"

// A custom Big/Little board is the extension the paper notes ("can be
// extended to any Big/Little configuration"): a Big slot occupies the
// fabric area of two Little slots, and the mix must fit the
// 8-Little-equivalent reconfigurable area of the ZCU216 floorplan.

func TestNewCustomBoard(t *testing.T) {
	b := NewBoard(0, CustomBigLittle(1, 6))
	if b.Count("Big") != 1 || b.Count("Little") != 6 {
		t.Fatalf("1B+6L board has %dB+%dL", b.Count("Big"), b.Count("Little"))
	}
	if b.Platform.Title != "Big.Little" {
		t.Fatal("mixed board not reported as Big.Little")
	}
	if NewBoard(0, CustomBigLittle(0, 8)).Platform.Title != "Only.Little" {
		t.Fatal("all-little board not reported as Only.Little")
	}
	// IDs remain unique and ordered.
	for i, s := range b.Slots {
		if s.ID != i {
			t.Fatal("custom board slot IDs broken")
		}
	}
}

func TestNewCustomBoardRejectsOversizedMix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("3B+3L (9 Little-equivalents) did not panic")
		}
	}()
	CustomBigLittle(3, 3)
}

func TestNewCustomBoardRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative count did not panic")
		}
	}()
	CustomBigLittle(-1, 4)
}

func TestCustomBoardAreaEquivalence(t *testing.T) {
	// Every legal mix tiles at most the same fabric area as 8 Little.
	eight := MustPlatform(ZCU216OnlyLittle).SlotCapacity()
	for _, mix := range [][2]int{{0, 8}, {1, 6}, {2, 4}, {3, 2}, {4, 0}} {
		b := NewBoard(0, CustomBigLittle(mix[0], mix[1]))
		if !b.Platform.SlotCapacity().FitsIn(eight) {
			t.Errorf("%dB+%dL exceeds the Only.Little area", mix[0], mix[1])
		}
	}
}
