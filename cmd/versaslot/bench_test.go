package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchQuickGolden pins `versaslot bench -quick` byte for byte, so
// a change that moves any paper-figure number shows up in review.
// Regenerate only after an intentional change:
// VERSASLOT_UPDATE_GOLDEN=1 go test -run BenchQuickGolden ./cmd/versaslot
func TestBenchQuickGolden(t *testing.T) {
	var buf bytes.Buffer
	runBench(&buf, []string{"-quick"})
	path := filepath.Join("testdata", "bench-quick.golden")
	if os.Getenv("VERSASLOT_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("bench -quick diverged from %s at line %d:\nwant %q\ngot  %q", path, i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("bench -quick diverged from %s: %d lines, want %d", path, len(gl), len(wl))
}
