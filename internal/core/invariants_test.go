package core

import (
	"testing"

	"versaslot"
	"versaslot/internal/appmodel"
	"versaslot/internal/fabric"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// TestRuntimeInvariants drives every policy, each on a fixed one-pair
// farm, through a congested workload while checking structural invariants at every kernel event:
//
//  1. no two stages ever claim the same slot;
//  2. a stage's slot always matches its kind;
//  3. per-stage completion counts are monotone and bounded by the batch;
//  4. pipeline causality: stage i never completes more items than i-1;
//  5. the kernel clock is monotone.
func TestRuntimeInvariants(t *testing.T) {
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = 10
	seq := workload.Generate(p, 21)

	for _, reg := range builtins() {
		reg := reg
		t.Run(reg.Title, func(t *testing.T) {
			f, e := fixedBoard(t, reg, 4, seq)
			apps := e.Apps

			lastDone := make(map[*appmodel.Stage]int)
			var lastTime sim.Time
			check := func() {
				now := f.Pairs[0].K.Now()
				if now < lastTime {
					t.Fatalf("clock went backwards: %v -> %v", lastTime, now)
				}
				lastTime = now
				owners := make(map[*fabric.Slot]*appmodel.Stage)
				for _, a := range apps {
					for i := range a.Stages {
						st := &a.Stages[i]
						if st.Done() < lastDone[st] {
							t.Fatalf("%v completion count regressed", st)
						}
						if st.Done() > a.Batch {
							t.Fatalf("%v completed more items than the batch", st)
						}
						lastDone[st] = st.Done()
						if st.Index() > 0 && st.Done() > a.Stages[st.Index()-1].Done() {
							t.Fatalf("%v ahead of its upstream stage", st)
						}
						if st.Slot() != nil {
							if prev, ok := owners[st.Slot()]; ok {
								t.Fatalf("slot %d double-booked by %v and %v", st.Slot().ID, prev, st)
							}
							owners[st.Slot()] = st
							if st.Slot().Class.Name != st.Class() {
								t.Fatalf("%v resident in wrong slot class", st)
							}
						}
					}
				}
			}
			for f.Step() {
				check()
			}
			e.CheckQuiescent()
			for _, a := range apps {
				if a.State != appmodel.StateFinished {
					t.Fatalf("app %v unfinished", a)
				}
				if a.Finish < a.Arrival {
					t.Fatalf("app %v finished before arriving", a)
				}
			}
		})
	}
}

// TestResponseTimesCoverAllApps: every injected app yields exactly one
// response sample with consistent fields.
func TestResponseTimesCoverAllApps(t *testing.T) {
	p := workload.DefaultGenParams(workload.Realtime)
	p.Apps = 15
	seq := workload.Generate(p, 33)
	for _, reg := range builtins() {
		res, err := versaslot.Run(versaslot.Scenario{Policy: reg.Name, Workload: seq, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Samples) != 15 {
			t.Fatalf("%s: %d samples", reg.Title, len(res.Samples))
		}
		seen := map[int]bool{}
		for _, s := range res.Samples {
			if seen[s.AppID] {
				t.Fatalf("%s: duplicate sample for app %d", reg.Title, s.AppID)
			}
			seen[s.AppID] = true
			if s.Response != sim.Duration(s.Finish-s.Arrival) {
				t.Fatalf("%s: inconsistent response for app %d", reg.Title, s.AppID)
			}
			if s.Response <= 0 {
				t.Fatalf("%s: non-positive response", reg.Title)
			}
		}
	}
}
