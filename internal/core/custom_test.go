package core

import (
	"testing"

	"versaslot"
	"versaslot/internal/sched"
	"versaslot/internal/workload"
)

// The legacy big_slots/little_slots mix runs a single board on the
// custom Big/Little platform, driven by the VersaSlot policy the mix
// implies.

func TestNewCustomSystemPolicySelection(t *testing.T) {
	for _, c := range []struct {
		big, little      int
		policy, platform string
	}{
		{2, 4, "versaslot-bl", "zcu216-custom-2b4l"},
		{0, 8, "versaslot-ol", "zcu216-custom-0b8l"},
	} {
		res, err := versaslot.Run(versaslot.Scenario{BigSlots: c.big, LittleSlots: c.little, Apps: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Policy != c.policy || res.Platform != c.platform {
			t.Errorf("%dB+%dL runs %s on %s, want %s on %s", c.big, c.little, res.Policy, res.Platform, c.policy, c.platform)
		}
	}
}

func TestCustomSystemExecutes(t *testing.T) {
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 8
	seq := workload.Generate(p, 17)
	for _, mix := range [][2]int{{1, 6}, {3, 2}} {
		res, err := versaslot.Run(versaslot.Scenario{BigSlots: mix[0], LittleSlots: mix[1], Workload: seq})
		if err != nil {
			t.Fatalf("%dB+%dL: %v", mix[0], mix[1], err)
		}
		if res.Summary.Apps != 8 {
			t.Fatalf("%dB+%dL finished %d of 8", mix[0], mix[1], res.Summary.Apps)
		}
	}
}

func TestCustomSystemParamsOverride(t *testing.T) {
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 12
	seq := workload.Generate(p, 3)
	params := sched.DefaultParams()
	params.CacheEntries = 1
	def, err := versaslot.Run(versaslot.Scenario{BigSlots: 2, LittleSlots: 4, Workload: seq})
	if err != nil {
		t.Fatal(err)
	}
	small, err := versaslot.Run(versaslot.Scenario{BigSlots: 2, LittleSlots: 4, Workload: seq, Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	if small.CacheHits >= def.CacheHits {
		t.Fatalf("a one-entry cache hit %d times, the default cache %d; params override ignored", small.CacheHits, def.CacheHits)
	}
}
