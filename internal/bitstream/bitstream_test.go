package bitstream

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"versaslot/internal/fabric"
	"versaslot/internal/sim"
)

func TestSizeModelProportional(t *testing.T) {
	m := DefaultSizeModel()
	little := m.PartialBytes(fabric.LittleSlotCap)
	big := m.PartialBytes(fabric.BigSlotCap)
	if little <= 0 {
		t.Fatal("non-positive partial size")
	}
	// A Big slot has exactly 2x the LUTs, so its partial is ~2x.
	ratio := float64(big) / float64(little)
	if ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("big/little partial ratio %.3f, want ~2", ratio)
	}
	if little >= m.FullBytes {
		t.Fatal("partial larger than full bitstream")
	}
}

func TestLoadTime(t *testing.T) {
	b := &Bitstream{Name: "x", Bytes: 128 << 20}
	d := LoadTime(b, 128<<20, 0)
	if d != sim.Second {
		t.Fatalf("128MB at 128MB/s took %v, want 1s", d)
	}
	d = LoadTime(b, 128<<20, 80*sim.Microsecond)
	if d != sim.Second+80*sim.Microsecond {
		t.Fatalf("fixed overhead not added: %v", d)
	}
}

func TestLoadTimePanicsOnBadBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero bandwidth did not panic")
		}
	}()
	LoadTime(&Bitstream{Bytes: 1}, 0, 0)
}

func TestRepository(t *testing.T) {
	r := NewRepository()
	if r.Len() != 0 {
		t.Fatal("new repo not empty")
	}
	if _, err := r.Get("missing"); err == nil {
		t.Fatal("Get on missing name succeeded")
	}
	b := &Bitstream{Name: "a/b@Little", Bytes: 100}
	r.Put(b)
	got, err := r.Get("a/b@Little")
	if err != nil || got != b {
		t.Fatalf("Get: %v %v", got, err)
	}
	// Replacement.
	b2 := &Bitstream{Name: "a/b@Little", Bytes: 200}
	r.Put(b2)
	if r.MustGet("a/b@Little").Bytes != 200 {
		t.Fatal("Put did not replace")
	}
	if r.Len() != 1 {
		t.Fatal("replacement changed length")
	}
}

func TestRepositoryMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGet on missing name did not panic")
		}
	}()
	NewRepository().MustGet("nope")
}

func TestNameBuilders(t *testing.T) {
	if TaskName("IC", "DCT", "Little") != "IC/DCT@Little" {
		t.Fatal("TaskName format")
	}
	if BundleName("IC", 0, "par", "Big") != "IC/bundle0-par@Big" {
		t.Fatal("BundleName format")
	}
	if FullName("IC") != "IC/full" {
		t.Fatal("FullName format")
	}
	if StaticName(fabric.ZCU216BigLittle) != "static/zcu216-big-little" {
		t.Fatal("StaticName format")
	}
}

func TestRepositoryNamesSorted(t *testing.T) {
	r := NewRepository()
	r.Put(&Bitstream{Name: "c"})
	r.Put(&Bitstream{Name: "a"})
	r.Put(&Bitstream{Name: "b"})
	names := r.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("Names not sorted: %v", names)
	}
}

func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	if c.Lookup("a") {
		t.Fatal("cold cache hit")
	}
	if !c.Lookup("a") {
		t.Fatal("warm entry missed")
	}
	c.Lookup("b")
	c.Lookup("a") // refresh a: now b is LRU
	c.Lookup("c") // evicts b
	if c.Contains("b") {
		t.Fatal("LRU entry not evicted")
	}
	if !c.Contains("a") || !c.Contains("c") {
		t.Fatal("wrong entries evicted")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 3 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestCacheWarmDoesNotCountMiss(t *testing.T) {
	c := NewCache(4)
	c.Warm("x")
	hits, misses := c.Stats()
	if hits != 0 || misses != 0 {
		t.Fatal("Warm affected stats")
	}
	if !c.Lookup("x") {
		t.Fatal("warmed entry missed")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < 3; i++ {
		if c.Lookup("x") {
			t.Fatal("disabled cache hit")
		}
	}
	c.Warm("x")
	if c.Len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}

// Property: the cache never holds more than its capacity.
func TestCacheBounded(t *testing.T) {
	f := func(ops []uint8) bool {
		c := NewCache(4)
		for _, op := range ops {
			name := string(rune('a' + op%16))
			if op%3 == 0 {
				c.Warm(name)
			} else {
				c.Lookup(name)
			}
			if c.Len() > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNamesFormattedOnce checks the interned bitstream names: each
// equals its format, a repeated request allocates nothing, and
// concurrent callers (RunMany workers share the table) all
// see the same names.
func TestNamesFormattedOnce(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				app := fmt.Sprintf("app%d", (i+g)%7)
				if got, want := TaskName(app, "T1", "Little"), app+"/T1@Little"; got != want {
					t.Errorf("TaskName = %q, want %q", got, want)
				}
				if got, want := BundleName(app, i%3, "ser", "Big"), fmt.Sprintf("%s/bundle%d-ser@Big", app, i%3); got != want {
					t.Errorf("BundleName = %q, want %q", got, want)
				}
				if got, want := FullName(app), app+"/full"; got != want {
					t.Errorf("FullName = %q, want %q", got, want)
				}
			}
		}(g)
	}
	wg.Wait()
	allocs := testing.AllocsPerRun(100, func() {
		TaskName("app1", "T1", "Little")
		BundleName("app1", 2, "ser", "Big")
		FullName("app1")
	})
	if allocs != 0 {
		t.Errorf("repeated name requests allocate %.1f times, want 0", allocs)
	}
}
