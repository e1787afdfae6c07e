package regalloc

import (
	"fmt"

	"prefcolor/internal/ir"
	"prefcolor/internal/target"
)

// ValidateInput checks that (input, machine) is a well-formed
// allocation request: the machine description is internally
// consistent (target.Machine.Validate), the function satisfies the
// structural IR invariants (ir.Validate), and every physical register
// the function names — operands, parameters, call pins — exists in
// the machine's register file. Run performs this check on entry, so
// malformed requests fail fast with a diagnostic instead of panicking
// or silently mis-allocating deep in selection.
func ValidateInput(input *ir.Func, machine *target.Machine) error {
	if input == nil {
		return fmt.Errorf("regalloc: nil input function")
	}
	if err := machine.Validate(); err != nil {
		return fmt.Errorf("regalloc: %w", err)
	}
	if err := ir.Validate(input); err != nil {
		return fmt.Errorf("regalloc: %s: invalid input: %w", input.Name, err)
	}
	outside := func(r ir.Reg) bool { return r.IsPhys() && r.PhysNum() >= machine.NumRegs }
	fail := func(where string, r ir.Reg) error {
		return fmt.Errorf("regalloc: %s: %s names %v but machine %q has %d registers",
			input.Name, where, r, machine.Name, machine.NumRegs)
	}
	for _, p := range input.Params {
		if outside(p) {
			return fail("parameter", p)
		}
	}
	// The location string is built only for the register that fails.
	for _, b := range input.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, d := range in.Defs {
				if outside(d) {
					return fail(fmt.Sprintf("b%d[%d]", b.ID, i), d)
				}
			}
			for _, u := range in.Uses {
				if outside(u) {
					return fail(fmt.Sprintf("b%d[%d]", b.ID, i), u)
				}
			}
		}
	}
	return nil
}
