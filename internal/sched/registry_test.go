package sched

import (
	"strings"
	"testing"

	"versaslot/internal/fabric"
	"versaslot/internal/hypervisor"
)

func TestRegistryBuiltins(t *testing.T) {
	names := Names()
	want := []string{"baseline", "fcfs", "rr", "nimblock", "versaslot-ol", "versaslot-bl"}
	if len(names) < len(want) {
		t.Fatalf("Names() = %v, want at least %v", names, want)
	}
	for i, name := range want {
		if names[i] != name {
			t.Errorf("Names()[%d] = %q, want %q (paper presentation order)", i, names[i], name)
		}
	}
	titles := []string{"Baseline", "FCFS", "RR", "Nimblock", "VersaSlot Only.Little", "VersaSlot Big.Little"}
	for i, r := range builtins() {
		if r.Title != titles[i] {
			t.Errorf("%s: Title = %q, want %q", r.Name, r.Title, titles[i])
		}
		if r.Factory == nil {
			t.Errorf("%s has nil factory", r.Name)
		}
	}
}

func TestRegistryLookupAliases(t *testing.T) {
	for _, name := range []string{"versaslot", "VERSASLOT-BL", "versaslot-big-little"} {
		r, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if r.Name != "versaslot-bl" {
			t.Errorf("Lookup(%q).Name = %q, want versaslot-bl", name, r.Name)
		}
	}
	if _, ok := Lookup("no-such-policy"); ok {
		t.Error("Lookup of unknown policy succeeded")
	}
}

func TestRegisterValidation(t *testing.T) {
	if err := Register(Registration{Name: "", Factory: func() Policy { return &FCFS{} }}); err == nil {
		t.Error("Register with empty name succeeded")
	}
	if err := Register(Registration{Name: "nil-factory"}); err == nil {
		t.Error("Register with nil factory succeeded")
	}
	// Duplicate canonical name.
	err := Register(Registration{Name: "fcfs", Factory: func() Policy { return &FCFS{} }})
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate Register error = %v, want 'already registered'", err)
	}
	// Duplicate via alias.
	err = Register(Registration{Name: "fresh-name", Aliases: []string{"versaslot"},
		Factory: func() Policy { return &FCFS{} }})
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("alias-duplicate Register error = %v, want 'already registered'", err)
	}
	if _, ok := Lookup("fresh-name"); ok {
		t.Error("failed registration leaked its canonical name into the registry")
	}
}

func TestRegisterExternalPolicy(t *testing.T) {
	err := Register(Registration{
		Name:     "test-external",
		Title:    "Test External",
		Platform: fabric.ZCU216OnlyLittle,
		Core:     hypervisor.DualCore,
		Factory:  func() Policy { return NewVersaSlotOL() },
	})
	if err != nil {
		t.Fatalf("Register external: %v", err)
	}
	r, ok := Lookup("test-external")
	if !ok {
		t.Fatal("Lookup of external policy failed")
	}
	if p := r.Factory(); p == nil {
		t.Error("external factory returned nil policy")
	}
}
