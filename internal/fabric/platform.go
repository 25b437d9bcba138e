package fabric

import (
	"fmt"
	"sync"

	"versaslot/internal/registry"
)

// SlotClass describes one reconfigurable-region size class of a
// platform: its name (the bitstream-repository key suffix), its
// resource capacity, and its reconfiguration-cost parameters. Classes
// are value types; a Platform holds an ordered mix of them.
type SlotClass struct {
	// Name keys bitstreams ("IC/DCT@Little") and slot compatibility
	// checks. Across the platform registry a name maps to exactly one
	// capacity, so a class name is globally meaningful.
	Name string `json:"name"`
	// Cap is the region's resource capacity.
	Cap ResVec `json:"cap"`
	// Area is the number of fabric tiles the region occupies; the
	// platform's AreaBudget bounds the total tiling.
	Area int `json:"area"`
	// Bytes, when nonzero, overrides the size-model estimate of the
	// region's partial bitstream (the dominant reconfiguration cost:
	// PCAP load time is Bytes/bandwidth, and a cross-board switch
	// re-streams the destination's partials on a miss).
	Bytes int64 `json:"bytes,omitempty"`
}

// Platform is a named board template: an ordered slot-class mix plus
// the static-region floorplan it tiles into. Platforms replace the old
// two-value SlotKind / three-value BoardConfig enums: board shape is
// data, selected per scenario, not code.
type Platform struct {
	// Name is the registry key ("zcu216-big-little").
	Name string `json:"name"`
	// Title is the display name ("Big.Little").
	Title string `json:"title,omitempty"`
	// Device is the whole-fabric resource total of the part.
	Device ResVec `json:"device,omitempty"`
	// AreaBudget is the number of reconfigurable fabric tiles left
	// after the static region (AXI interconnect, slot interfaces, DFX
	// decouplers, switching module) is floorplanned.
	AreaBudget int `json:"area_budget"`
	// Classes is the slot-class mix in slot-ID order, largest capacity
	// first; Counts[i] slots of Classes[i] are laid out consecutively.
	Classes []SlotClass `json:"classes"`
	Counts  []int       `json:"counts"`
	// Virtual marks the monolithic baseline template: the "slots" are
	// virtual stage regions of one resident full-fabric design, not DPR
	// regions, so the area invariant does not apply.
	Virtual bool `json:"virtual,omitempty"`
}

// Validate checks the platform invariants: aligned non-empty class and
// count vectors, unique class names, positive capacities and counts,
// capacity ordering (LUT capacity non-increasing in declaration order),
// and — for DPR platforms — the area tiling against the budget.
func (p *Platform) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("fabric: platform with empty name")
	}
	if len(p.Classes) == 0 {
		return fmt.Errorf("fabric: platform %q has no slot classes", p.Name)
	}
	if len(p.Counts) != len(p.Classes) {
		return fmt.Errorf("fabric: platform %q: %d classes but %d counts", p.Name, len(p.Classes), len(p.Counts))
	}
	seen := make(map[string]bool, len(p.Classes))
	area := 0
	for i, c := range p.Classes {
		if c.Name == "" {
			return fmt.Errorf("fabric: platform %q: class %d has no name", p.Name, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("fabric: platform %q: duplicate class %q", p.Name, c.Name)
		}
		seen[c.Name] = true
		if c.Cap.LUT <= 0 || c.Cap.FF <= 0 {
			return fmt.Errorf("fabric: platform %q: class %q has non-positive LUT/FF capacity", p.Name, c.Name)
		}
		if p.Counts[i] <= 0 {
			return fmt.Errorf("fabric: platform %q: class %q count %d", p.Name, c.Name, p.Counts[i])
		}
		if i > 0 && c.Cap.LUT > p.Classes[i-1].Cap.LUT {
			return fmt.Errorf("fabric: platform %q: classes must be declared largest-capacity first (%q exceeds %q)",
				p.Name, c.Name, p.Classes[i-1].Name)
		}
		if !p.Virtual {
			if c.Area <= 0 {
				return fmt.Errorf("fabric: platform %q: class %q has no area", p.Name, c.Name)
			}
			area += c.Area * p.Counts[i]
		}
	}
	if !p.Virtual && p.AreaBudget > 0 && area > p.AreaBudget {
		return fmt.Errorf("fabric: platform %q over-tiled: classes need %d tiles, the fabric holds %d",
			p.Name, area, p.AreaBudget)
	}
	return nil
}

// MustValidate panics on an invalid platform (init-time built-ins and
// custom platforms constructed from checked scenario specs).
func (p *Platform) MustValidate() *Platform {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// SlotCount returns the total number of slots the platform lays out.
func (p *Platform) SlotCount() int {
	n := 0
	for _, c := range p.Counts {
		n += c
	}
	return n
}

// SlotCapacity returns the summed capacity of the platform's slots —
// the denominator for board-level utilization metrics. It is a
// property of the layout, so a board that was never built has it too.
func (p *Platform) SlotCapacity() ResVec {
	var total ResVec
	for i, c := range p.Classes {
		n := p.Counts[i]
		total = total.Add(ResVec{c.Cap.LUT * n, c.Cap.FF * n, c.Cap.DSP * n, c.Cap.BRAM * n})
	}
	return total
}

// Heterogeneous reports whether the platform mixes more than one DPR
// slot class (the precondition for the Big.Little-style policies).
func (p *Platform) Heterogeneous() bool { return !p.Virtual && len(p.Classes) > 1 }

// Largest returns the largest-capacity class (declaration order is
// largest first).
func (p *Platform) Largest() SlotClass { return p.Classes[0] }

// Smallest returns the smallest-capacity class — the "base" class the
// uniform-slot policies schedule on.
func (p *Platform) Smallest() SlotClass { return p.Classes[len(p.Classes)-1] }

// ClassByName resolves a class of this platform.
func (p *Platform) ClassByName(name string) (SlotClass, bool) {
	for _, c := range p.Classes {
		if c.Name == name {
			return c, true
		}
	}
	return SlotClass{}, false
}

// FitsAnyClass reports whether a circuit of the given footprint fits at
// least one slot class of the platform — the capacity-awareness test
// heterogeneous-farm dispatchers apply before routing an application to
// a pair.
func (p *Platform) FitsAnyClass(res ResVec) bool {
	for _, c := range p.Classes {
		if res.FitsIn(c.Cap) {
			return true
		}
	}
	return false
}

// platforms is the process-wide platform registry, mirroring the
// policy/dispatcher/arrival registries: string-keyed, third parties
// register at init time. It additionally enforces that a slot-class
// name resolves to one capacity across every registered platform, so
// class-keyed bitstream repositories stay unambiguous.
var (
	platforms      = registry.New[*Platform]("fabric")
	classMu        sync.RWMutex
	classCapByName = map[string]ResVec{}
)

// registeredClassCap returns the capacity a class name carries across
// the registry, if any platform declares it.
func registeredClassCap(name string) (ResVec, bool) {
	classMu.RLock()
	defer classMu.RUnlock()
	cap, ok := classCapByName[name]
	return cap, ok
}

// RegisterPlatform adds a platform (validated) to the registry. Every
// slot-class name must either be new or agree with the capacity it has
// on already-registered platforms.
func RegisterPlatform(p *Platform, aliases ...string) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Title == "" {
		p.Title = p.Name
	}
	classMu.Lock()
	defer classMu.Unlock()
	for _, c := range p.Classes {
		if cap, ok := classCapByName[c.Name]; ok && cap != c.Cap {
			return fmt.Errorf("fabric: register %q: class %q capacity %v conflicts with registered capacity %v",
				p.Name, c.Name, c.Cap, cap)
		}
	}
	if err := platforms.Register(p.Name, p, aliases...); err != nil {
		return err
	}
	for _, c := range p.Classes {
		classCapByName[c.Name] = c.Cap
	}
	return nil
}

// MustRegisterPlatform is RegisterPlatform, panicking on error.
func MustRegisterPlatform(p *Platform, aliases ...string) {
	if err := RegisterPlatform(p, aliases...); err != nil {
		panic(err)
	}
}

// LookupPlatform resolves a platform by name or alias.
func LookupPlatform(name string) (*Platform, bool) { return platforms.Lookup(name) }

// MustPlatform is LookupPlatform for names the caller guarantees are
// registered (built-ins).
func MustPlatform(name string) *Platform {
	p, ok := platforms.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("fabric: unknown platform %q (registered: %v)", name, PlatformNames()))
	}
	return p
}

// PlatformNames lists canonical platform names in registration order
// (built-ins first).
func PlatformNames() []string { return platforms.Names() }

// Platforms returns every registered platform in registration order.
func Platforms() []*Platform { return platforms.Values() }

// RegisteredClasses returns the distinct slot classes across every
// registered platform, in first-registration order — the class set the
// shared bitstream repository generates partials for.
func RegisteredClasses() []SlotClass {
	var out []SlotClass
	seen := make(map[string]bool)
	for _, p := range platforms.Values() {
		for _, c := range p.Classes {
			if !seen[c.Name] {
				seen[c.Name] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// Built-in platform names.
const (
	// ZCU216BigLittle is the paper's heterogeneous floorplan: 2 Big + 4
	// Little slots on a ZCU216.
	ZCU216BigLittle = "zcu216-big-little"
	// ZCU216OnlyLittle is the paper's uniform floorplan: 8 Little slots.
	ZCU216OnlyLittle = "zcu216-only-little"
	// ZCU216OnlyBig tiles the same fabric into 4 Big slots.
	ZCU216OnlyBig = "zcu216-only-big"
	// ZCU216Monolithic is the exclusive temporal-multiplexing baseline:
	// no DPR slots, one resident full-fabric design modeled as virtual
	// stage regions.
	ZCU216Monolithic = "zcu216-monolithic"
	// U250Quad is an Alveo U250-style datacenter card tiled into 4
	// equal large slots (FOS/Coyote-style uniform shells).
	U250Quad = "u250-quad"
	// PYNQDual is a PYNQ-class edge board with 2 small slots; large
	// circuits do not fit and must route to bigger boards.
	PYNQDual = "pynq-dual"
)

// MonolithicStageRegions is how many concurrently-resident pipeline
// stages the monolithic baseline platform models. These are not DPR
// slots: they stand for the stages of the single resident full-fabric
// design (the longest benchmark pipeline has 9 tasks).
const MonolithicStageRegions = 9

// Little and Big are the ZCU216 slot classes; Little slots tile one
// fabric unit each, a Big slot exactly two (twice the capacity, per the
// paper).
var (
	LittleClass = SlotClass{Name: "Little", Cap: LittleSlotCap, Area: 1}
	BigClass    = SlotClass{Name: "Big", Cap: BigSlotCap, Area: 2}
)

// U250 device totals (XCU250), rounded to the datasheet scale.
var U250Total = ResVec{LUT: 1_728_000, FF: 3_456_000, DSP: 12_288, BRAM: 2688}

// LargeClass is the U250 shell slot: an order of magnitude beyond a
// ZCU216 Little slot, with an explicit partial-bitstream size (the
// reconfiguration-cost parameter) since the default ZCU216 size model
// does not apply.
var LargeClass = SlotClass{Name: "Large", Cap: ResVec{LUT: 320_000, FF: 640_000, DSP: 2400, BRAM: 520}, Area: 2, Bytes: 28 << 20}

// PYNQTotal approximates a PYNQ-class Zynq-7020 part.
var PYNQTotal = ResVec{LUT: 53_200, FF: 106_400, DSP: 220, BRAM: 140}

// SmallClass is the PYNQ slot: roughly 60% of a Little slot, so the
// suite's heaviest tasks (LUT utilization above 0.60 of a Little slot)
// do not fit and must be dispatched to larger boards.
var SmallClass = SlotClass{Name: "Small", Cap: ResVec{LUT: 25_200, FF: 50_400, DSP: 100, BRAM: 60}, Area: 1, Bytes: 3 << 20}

func init() {
	MustRegisterPlatform(&Platform{
		Name: ZCU216BigLittle, Title: "Big.Little",
		Device: ZCU216Total, AreaBudget: 8,
		Classes: []SlotClass{BigClass, LittleClass}, Counts: []int{2, 4},
	}, "big-little")
	MustRegisterPlatform(&Platform{
		Name: ZCU216OnlyLittle, Title: "Only.Little",
		Device: ZCU216Total, AreaBudget: 8,
		Classes: []SlotClass{LittleClass}, Counts: []int{8},
	}, "only-little")
	MustRegisterPlatform(&Platform{
		Name: ZCU216OnlyBig, Title: "Only.Big",
		Device: ZCU216Total, AreaBudget: 8,
		Classes: []SlotClass{BigClass}, Counts: []int{4},
	}, "only-big")
	MustRegisterPlatform(&Platform{
		Name: ZCU216Monolithic, Title: "Monolithic",
		Device: ZCU216Total, AreaBudget: 8, Virtual: true,
		Classes: []SlotClass{LittleClass}, Counts: []int{MonolithicStageRegions},
	}, "monolithic")
	MustRegisterPlatform(&Platform{
		Name: U250Quad, Title: "U250 Quad",
		Device: U250Total, AreaBudget: 8,
		Classes: []SlotClass{LargeClass}, Counts: []int{4},
	})
	MustRegisterPlatform(&Platform{
		Name: PYNQDual, Title: "PYNQ Dual",
		Device: PYNQTotal, AreaBudget: 2,
		Classes: []SlotClass{SmallClass}, Counts: []int{2},
	})
}

// CustomBigLittle builds an unregistered ZCU216 platform with an
// arbitrary Big/Little slot mix — the paper's "any Big/Little
// configuration" extension. It panics on negative counts or when the
// mix over-tiles the 8-Little-equivalent fabric.
func CustomBigLittle(big, little int) *Platform {
	if big < 0 || little < 0 {
		panic("fabric: negative slot count")
	}
	if area := 2*big + little; area > 8 {
		panic(fmt.Sprintf("fabric: %dB+%dL needs %d Little-equivalents; the fabric holds 8", big, little, area))
	}
	p := &Platform{
		Name:   fmt.Sprintf("zcu216-custom-%db%dl", big, little),
		Device: ZCU216Total, AreaBudget: 8,
	}
	if big > 0 {
		p.Title = "Big.Little"
		p.Classes = append(p.Classes, BigClass)
		p.Counts = append(p.Counts, big)
	} else {
		p.Title = "Only.Little"
	}
	if little > 0 {
		p.Classes = append(p.Classes, LittleClass)
		p.Counts = append(p.Counts, little)
	}
	return p.MustValidate()
}
