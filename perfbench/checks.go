package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"versaslot"
)

// pinnedDigests are the SHA-256 digests of each workload's Results at
// defaultSeed: the Result JSON of every scenario of one operation, in
// scenario order, hashed together. A change to the simulator that
// alters any simulated outcome changes them.
var pinnedDigests = map[string]string{
	"paper-sweep":  "d26d34ec531e1f10b7b760de661d0b622efbe5fbd6f4c50cbb232840f8439dbd",
	"fleet-1024":   "eace9144a54546ad1b62ed59810e2a868a3a3a9f8056a473a90d6a327fd5c258",
	"tenant-chaos": "88f683076f367f755331bcc6b2c828a3a460210c73a2de47ef2f8aa218176f95",
}

// tally counts operations and the ones that failed a check. One
// operation is one Scenario → Result run.
// Checks of the benchmark's own outputs (the trace file, the profile)
// are not operations; a failed one still makes the run incorrect.
type tally struct {
	attempted, failed int
	brokenChecks      int
	// firstErrs keeps the first few failures for the report.
	firstErrs []string
}

func (t *tally) record(n int, err error) {
	t.attempted += n
	if err != nil {
		t.failed += n
		t.note(err)
	}
}

func (t *tally) check(err error) {
	if err != nil {
		t.brokenChecks++
		t.note(err)
	}
}

func (t *tally) note(err error) {
	if len(t.firstErrs) < 5 {
		t.firstErrs = append(t.firstErrs, err.Error())
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

func (t *tally) correct() bool { return t.failed == 0 && t.brokenChecks == 0 && t.attempted > 0 }

// digest hashes a Result's JSON form; repeats of a deterministic run
// must produce the same digest.
func digest(r *versaslot.Result) string {
	b, err := json.Marshal(r)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// combinedDigest hashes a list of Result digests in order.
func combinedDigest(digests []string) string {
	h := sha256.New()
	for _, d := range digests {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkResult applies the per-Result output checks: every submitted
// application finished, and every tenant ledger reconciles.
func checkResult(s versaslot.Scenario, r *versaslot.Result) error {
	if r == nil {
		return fmt.Errorf("%s: nil result", s.Name)
	}
	if len(s.Tenants) == 0 {
		want := s.Apps
		if want == 0 {
			want = 20
		}
		if r.Summary.Apps != want {
			return fmt.Errorf("%s: %d of %d submitted apps finished", s.Name, r.Summary.Apps, want)
		}
		return nil
	}
	if len(r.Tenants) != len(s.Tenants) {
		return fmt.Errorf("%s: %d tenant ledgers for %d tenants", s.Name, len(r.Tenants), len(s.Tenants))
	}
	finished := 0
	for i, t := range r.Tenants {
		if t.Submitted != t.Admitted+t.Rejected+t.Queued {
			return fmt.Errorf("%s: tenant %s: submitted %d != admitted %d + rejected %d + queued %d",
				s.Name, t.Tenant, t.Submitted, t.Admitted, t.Rejected, t.Queued)
		}
		if t.Admitted != t.Finished+t.InFlight {
			return fmt.Errorf("%s: tenant %s: admitted %d != finished %d + in flight %d",
				s.Name, t.Tenant, t.Admitted, t.Finished, t.InFlight)
		}
		if t.Queued != 0 || t.InFlight != 0 {
			return fmt.Errorf("%s: tenant %s: %d queued and %d in flight at the end of the run",
				s.Name, t.Tenant, t.Queued, t.InFlight)
		}
		want := s.Tenants[i].Apps
		if want == 0 {
			want = s.Apps
		}
		if t.Submitted != want {
			return fmt.Errorf("%s: tenant %s: %d of %d apps submitted", s.Name, t.Tenant, t.Submitted, want)
		}
		finished += t.Finished
	}
	if r.Summary.Apps != finished {
		return fmt.Errorf("%s: %d apps in the summary, %d finished in the tenant ledgers", s.Name, r.Summary.Apps, finished)
	}
	return nil
}

// guard runs fn and turns a panic inside it into an error, so one
// crashing run counts as a failed operation instead of ending the
// benchmark.
func guard(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}
