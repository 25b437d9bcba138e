// Package fabric models the programmable-logic side of an FPGA board
// as data: resource vectors, slot classes, reconfigurable slots, and
// declarative board platforms with a process-wide registry.
//
// A SlotClass is a named region size (capacity vector, fabric-tile
// area, partial-bitstream size — its reconfiguration-cost parameter).
// A Platform is a named board template: an ordered slot-class mix plus
// the static-region floorplan it tiles into. Boards materialize
// platforms; everything above (policies, bitstream repositories,
// clusters, farms) consumes platforms instead of hard-coded enums, so
// new board shapes are registered, not coded.
//
// Built-ins cover the paper's ZCU216 templates (zcu216-big-little,
// zcu216-only-little, zcu216-only-big, and the virtual
// zcu216-monolithic baseline) plus a datacenter u250-quad and an edge
// pynq-dual profile. Third parties add platforms with RegisterPlatform
// at init time (before the shared bitstream repository freezes);
// scenarios reference them by name or define inline customs via
// PlatformSpec.
//
// Invariants, enforced by Platform.Validate and the registry:
//
//   - Area tiling: sum over classes of count*Area must not exceed the
//     platform's AreaBudget (the reconfigurable tiles left after the
//     static region). Virtual platforms — monolithic stage regions,
//     not DPR slots — skip this check.
//   - Capacity ordering: classes are declared largest LUT capacity
//     first, so Largest()/Smallest() (the Big/Little roles policies
//     rank by) are positional, and slot IDs group by class in
//     declaration order.
//   - Class-name consistency: across the registry a class name maps to
//     exactly one capacity. Bitstream repositories key partials by
//     class name ("IC/DCT@Little"), so a name must mean the same
//     region everywhere.
//
// Occupancy counter. A Board keeps, per slot class, the number of
// allocatable slots — SlotEmpty and not failed — so CountEmpty (and the
// empty-board fast path of FirstEmpty) is O(1) in the slot count.
// Every slot holds a pointer to its class's counter, and the Slot
// methods that change state or the failed flag are the only writers:
// BeginLoad, CompleteLoad, BeginExec, CompleteExec and Clear on the
// normal path, Fail, Recover, Scrub and AbortLoad on the fault path.
// Each compares allocatability before and after its transition and
// adjusts the counter by the difference, so the count stays exact
// whatever order the engine drives them in. A slot built outside
// NewBoard carries no counter and tracks nothing.
//
// The paper's scale anchors the built-ins: a ZCU216 divides into a
// static region plus 8 Little-equivalents, with a Big slot holding
// exactly twice a Little slot's resources.
package fabric
