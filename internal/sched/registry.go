package sched

import (
	"fmt"

	"versaslot/internal/fabric"
	"versaslot/internal/hypervisor"
	"versaslot/internal/registry"
)

// Registration declares one schedulable policy: its canonical
// config/CLI name, display title, the platform it runs on (each policy
// declares its own board floorplan and control-plane model, mirroring
// the paper's evaluation setup), and a factory producing fresh policy
// instances. Third-party policies register the same way.
type Registration struct {
	// Name is the canonical lower-case lookup key ("versaslot-bl").
	Name string
	// Aliases are alternate lookup keys ("versaslot").
	Aliases []string
	// Title is the display name ("VersaSlot Big.Little").
	Title string
	// Platform is the registered platform the policy runs on by
	// default; scenarios may override it with any platform Supports
	// accepts.
	Platform string
	// Core is the control-plane topology the policy assumes.
	Core hypervisor.CoreModel
	// Factory builds a fresh policy instance per run.
	Factory func() Policy
	// Supports, when non-nil, vets a platform override beyond the
	// structural virtual/DPR check (e.g. the Big.Little policy requires
	// a heterogeneous class mix).
	Supports func(p *fabric.Platform) error
}

// CompatiblePlatform reports whether a policy registration can drive a
// platform: virtual (monolithic) platforms pair only with policies
// whose declared platform is virtual, DPR platforms only with DPR
// policies, and any policy-specific Supports check must pass.
func CompatiblePlatform(r *Registration, p *fabric.Platform) error {
	declared, ok := fabric.LookupPlatform(r.Platform)
	if !ok {
		return fmt.Errorf("sched: policy %q declares unknown platform %q", r.Name, r.Platform)
	}
	if declared.Virtual != p.Virtual {
		if p.Virtual {
			return fmt.Errorf("sched: policy %q drives DPR slots; platform %q is the monolithic baseline", r.Name, p.Name)
		}
		return fmt.Errorf("sched: policy %q multiplexes a monolithic fabric; platform %q has DPR slots", r.Name, p.Name)
	}
	if r.Supports != nil {
		return r.Supports(p)
	}
	return nil
}

// policies is the shared string-keyed table; the farm's dispatcher
// registry (internal/cluster) uses the same generic helper.
var policies = registry.New[*Registration]("sched")

// Register adds a policy to the registry. The name (and every alias)
// must be non-empty, lower-case-unique, and not already taken; the
// factory must be non-nil.
func Register(r Registration) error {
	if r.Name == "" {
		return fmt.Errorf("sched: register: empty policy name")
	}
	if r.Factory == nil {
		return fmt.Errorf("sched: register %q: nil factory", r.Name)
	}
	if r.Title == "" {
		r.Title = r.Name
	}
	reg := r
	return policies.Register(r.Name, &reg, r.Aliases...)
}

// MustRegister is Register, panicking on error; for init-time use.
func MustRegister(r Registration) {
	if err := Register(r); err != nil {
		panic(err)
	}
}

// Lookup resolves a policy by name or alias (case-insensitive).
func Lookup(name string) (*Registration, bool) {
	return policies.Lookup(name)
}

// Names lists canonical policy names in registration order (built-ins
// first, in the paper's presentation order).
func Names() []string { return policies.Names() }

// Registrations returns every registration in registration order.
func Registrations() []*Registration { return policies.Values() }

// regOL and regBL are the two VersaSlot registrations, the
// policies of a switching pair's boards.
var regOL, regBL *Registration

// VersaSlotFor returns the VersaSlot registration a platform calls
// for: Big.Little on a heterogeneous platform, Only.Little otherwise.
func VersaSlotFor(p *fabric.Platform) *Registration {
	if p.Heterogeneous() {
		return regBL
	}
	return regOL
}

func init() {
	MustRegister(Registration{
		Name: "baseline", Title: "Baseline",
		Platform: fabric.ZCU216Monolithic, Core: hypervisor.SingleCore,
		Factory: func() Policy { return &Exclusive{} },
	})
	MustRegister(Registration{
		Name: "fcfs", Title: "FCFS",
		Platform: fabric.ZCU216OnlyLittle, Core: hypervisor.SingleCore,
		Factory: func() Policy { return &FCFS{} },
	})
	MustRegister(Registration{
		Name: "rr", Title: "RR",
		Platform: fabric.ZCU216OnlyLittle, Core: hypervisor.SingleCore,
		Factory: func() Policy { return &RR{} },
	})
	MustRegister(Registration{
		Name: "nimblock", Title: "Nimblock",
		Platform: fabric.ZCU216OnlyLittle, Core: hypervisor.SingleCore,
		Factory: func() Policy { return &Nimblock{} },
	})
	MustRegister(Registration{
		Name: "versaslot-ol", Aliases: []string{"versaslot-only-little"},
		Title:    "VersaSlot Only.Little",
		Platform: fabric.ZCU216OnlyLittle, Core: hypervisor.DualCore,
		Factory: func() Policy { return NewVersaSlotOL() },
	})
	MustRegister(Registration{
		Name: "versaslot-bl", Aliases: []string{"versaslot", "versaslot-big-little"},
		Title:    "VersaSlot Big.Little",
		Platform: fabric.ZCU216BigLittle, Core: hypervisor.DualCore,
		Factory: func() Policy { return NewVersaSlotBL() },
		Supports: func(p *fabric.Platform) error {
			if !p.Heterogeneous() {
				return fmt.Errorf("sched: versaslot-bl needs a heterogeneous slot-class mix; platform %q is uniform", p.Name)
			}
			return nil
		},
	})
	regOL, _ = Lookup("versaslot-ol")
	regBL, _ = Lookup("versaslot-bl")
}
