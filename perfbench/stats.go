package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// dist summarizes one metric's samples the way the report prints them:
// sample count, median and the first and third quartiles.
type dist struct {
	N      int
	Median float64
	Q1, Q3 float64
	Unit   string
}

// quartiles returns Q1, median and Q3 with the "exclusive" method of
// Python's statistics.quantiles(n=4), so the report's spread matches
// the one a reader recomputes from the printed samples. Fewer than two
// samples collapse to the single value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := float64(len(s) + 1)
	at := func(j int) float64 {
		pos := float64(j) * m / 4
		i := int(pos)
		frac := pos - float64(i)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return at(1), at(2), at(3)
}

func summarize(xs []float64, unit string) dist {
	q1, med, q3 := quartiles(xs)
	return dist{N: len(xs), Median: med, Q1: q1, Q3: q3, Unit: unit}
}

// one wraps a single measured value (a count or a ratio computed once
// per run) as a one-sample distribution.
func one(v float64, unit string) dist { return dist{N: 1, Median: v, Q1: v, Q3: v, Unit: unit} }

// host is the report's host block: what a reader needs to know to
// compare two reports.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// SourceSHA256 hashes the simulator's Go sources and go.mod. It
	// identifies the code under test when the checkout carries no VCS
	// metadata (Commit then reads "unknown").
	SourceSHA256 string `json:"source_sha256"`
}

func hostBlock(root string) host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				h.Commit = s.Value
			}
		}
	}
	h.SourceSHA256 = sourceDigest(root)
	return h
}

// sourceDigest hashes every .go file and go.mod of the module at root,
// in path order, skipping the benchmark's own directory and build
// output. An unreadable tree yields "unknown".
func sourceDigest(root string) string {
	hash := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel == benchDir || rel == buildDir || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && rel != "go.mod" {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(hash, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(hash, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(hash.Sum(nil))[:16]
}

// resetPeakRSS sets the process's peak resident set back to its
// current resident set, through /proc/self/clear_refs (Linux 4.0 and
// later).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from
// /proc/self/status; zero where the file does not exist.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
