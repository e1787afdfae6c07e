package regalloc_test

import (
	"strings"
	"testing"

	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
)

// TestRunRejectsMalformedMachine: a broken machine description must
// fail at Run entry with a target diagnostic, not panic (the negative
// limit operand used to index out of bounds) or silently mis-cost.
func TestRunRejectsMalformedMachine(t *testing.T) {
	f := ir.MustParse(`
func f(v0) {
b0:
  v1 = shl v0, v0
  ret v1
}
`)
	cases := []struct {
		name    string
		mutate  func(*target.Machine)
		wantSub string
	}{
		{"negative-limit-operand", func(m *target.Machine) {
			m.Limits = append(m.Limits, target.Limit{Name: "neg", Op: ir.Shl, Operand: -1, Regs: []int{2}})
		}, "operand"},
		{"limit-reg-out-of-file", func(m *target.Machine) {
			m.Limits = append(m.Limits, target.Limit{Name: "wide", Op: ir.Shl, Operand: 1, Regs: []int{m.NumRegs}})
		}, "Regs"},
		{"volatile-overlong", func(m *target.Machine) {
			m.Volatile = make([]bool, m.NumRegs+3)
		}, "Volatile"},
		{"retreg-out-of-file", func(m *target.Machine) {
			m.RetReg = m.NumRegs
		}, "RetReg"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := target.UsageModel(8)
			c.mutate(m)
			_, _, err := regalloc.Run(f, m, mustAlloc(t, "chaitin"), regalloc.Options{})
			if err == nil {
				t.Fatalf("Run accepted a %s machine", c.name)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error = %q, want mention of %q", err, c.wantSub)
			}
		})
	}
}

// TestRunRejectsMalformedInput: structural IR violations and
// out-of-file physical registers fail fast at entry.
func TestRunRejectsMalformedInput(t *testing.T) {
	m := target.UsageModel(8)

	t.Run("stale-preds", func(t *testing.T) {
		f := ir.MustParse(`
func f(v0) {
b0:
  branch v0, b1, b2
b1:
  jump b2
b2:
  ret v0
}
`)
		// Damage the pred lists behind Validate's back.
		f.Blocks[2].Preds = nil
		_, _, err := regalloc.Run(f, m, mustAlloc(t, "chaitin"), regalloc.Options{})
		if err == nil || !strings.Contains(err.Error(), "invalid input") {
			t.Errorf("Run = %v, want invalid-input diagnostic", err)
		}
	})

	t.Run("phys-reg-outside-file", func(t *testing.T) {
		f := ir.MustParse(`
func f(v0) {
b0:
  v1 = add v0, r12
  ret v1
}
`)
		_, _, err := regalloc.Run(f, m, mustAlloc(t, "chaitin"), regalloc.Options{})
		if err == nil || !strings.Contains(err.Error(), "r12") {
			t.Errorf("Run = %v, want out-of-file register diagnostic", err)
		}
	})

	t.Run("nil-func", func(t *testing.T) {
		_, _, err := regalloc.Run(nil, m, mustAlloc(t, "chaitin"), regalloc.Options{})
		if err == nil {
			t.Error("Run accepted a nil function")
		}
	})
}

// TestValidateInputRegisterRange pins the exact diagnostic for a
// physical register outside the machine's file, named by a parameter
// and by an instruction (the location is block id and instruction
// index). In-range registers pass.
func TestValidateInputRegisterRange(t *testing.T) {
	m := target.UsageModel(8)
	cases := []struct {
		name, src, want string
	}{
		{"parameter", `
func p(v0, r9) {
b0:
  v1 = add v0, r9
  ret v1
}
`, `regalloc: p: parameter names r9 but machine "usage8" has 8 registers`},
		{"instruction", `
func q(v0) {
b0:
  jump b1
b1:
  v1 = add v0, v0
  v2 = add v1, r12
  r10 = move v2
  ret v2
}
`, `regalloc: q: b1[1] names r12 but machine "usage8" has 8 registers`},
		{"in-range", `
func ok(v0) {
b0:
  v1 = add v0, r7
  ret v1
}
`, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := regalloc.ValidateInput(ir.MustParse(c.src), m)
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != c.want {
				t.Errorf("ValidateInput = %q, want %q", got, c.want)
			}
		})
	}
}
