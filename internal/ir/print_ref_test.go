package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"prefcolor/internal/core"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// This file keeps the fmt-based printer that the append-based one
// replaced, as the reference TestPrinterMatchesReference compares
// against byte for byte.

func refRegString(r ir.Reg) string {
	switch {
	case r == ir.NoReg:
		return "<none>"
	case r.IsPhys():
		return fmt.Sprintf("r%d", r.PhysNum())
	default:
		return fmt.Sprintf("v%d", r.VirtNum())
	}
}

func refInstrString(in ir.Instr) string {
	var b strings.Builder
	if len(in.Defs) > 0 {
		for i, d := range in.Defs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(refRegString(d))
		}
		b.WriteString(" = ")
	}
	b.WriteString(in.Op.String())
	if in.Op == ir.Call {
		b.WriteString(" @")
		b.WriteString(in.Sym)
	}
	for i, u := range in.Uses {
		if i == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		b.WriteString(refRegString(u))
	}
	switch in.Op {
	case ir.LoadImm, ir.SpillLoad:
		fmt.Fprintf(&b, " %d", in.Imm)
	case ir.Load, ir.Store, ir.SpillStore, ir.AddImm:
		fmt.Fprintf(&b, ", %d", in.Imm)
	}
	return b.String()
}

func refFuncString(f *ir.Func) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(refRegString(p))
	}
	sb.WriteString(") {\n")
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d:", b.ID)
		if len(b.Succs) > 0 {
			sb.WriteString(" ; succs:")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " b%d", s)
			}
		}
		sb.WriteByte('\n')
		for i := range b.Instrs {
			in := &b.Instrs[i]
			sb.WriteString("  ")
			sb.WriteString(refInstrString(*in))
			switch in.Op {
			case ir.Jump:
				fmt.Fprintf(&sb, " b%d", b.Succs[0])
			case ir.Branch:
				fmt.Fprintf(&sb, ", b%d, b%d", b.Succs[0], b.Succs[1])
			}
			sb.WriteByte('\n')
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// checkPrinter compares Func.String, Instr.String and Reg.String with
// the reference on f.
func checkPrinter(t *testing.T, f *ir.Func) {
	t.Helper()
	if got, want := f.String(), refFuncString(f); got != want {
		t.Fatalf("%s: printer differs from the reference\ngot:\n%s\nwant:\n%s", f.Name, got, want)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if got, want := in.String(), refInstrString(in); got != want {
				t.Fatalf("%s: instruction printed %q, reference %q", f.Name, got, want)
			}
			for _, r := range append(append([]ir.Reg(nil), in.Defs...), in.Uses...) {
				if got, want := r.String(), refRegString(r); got != want {
					t.Fatalf("%s: register printed %q, reference %q", f.Name, got, want)
				}
			}
		}
	}
}

// TestPrinterMatchesReference renders the nine profiles, Large and
// fuzz seeds 1–100 — as generated (virtual registers) and as
// allocated at k = 8 (physical registers, spill code, caller saves) —
// and compares every function, instruction and register with the
// reference printer.
func TestPrinterMatchesReference(t *testing.T) {
	m := target.UsageModel(8)
	var funcs []*ir.Func
	for _, p := range append(workload.Benchmarks(), workload.Large()) {
		funcs = append(funcs, workload.Generate(p, m)...)
	}
	for seed := int64(1); seed <= 100; seed++ {
		funcs = append(funcs, workload.GenerateRawFunc(workload.Fuzz(), m, seed))
	}
	for _, f := range funcs {
		checkPrinter(t, f)
		out, _, err := regalloc.Run(f, m, core.New(), regalloc.Options{})
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		checkPrinter(t, out)
	}
	for _, r := range []ir.Reg{ir.NoReg, ir.Phys(0), ir.Phys(254), ir.Virt(0), ir.Virt(1 << 20)} {
		if got, want := r.String(), refRegString(r); got != want {
			t.Errorf("Reg(%d).String() = %q, reference %q", int32(r), got, want)
		}
	}
	neg := ir.Instr{Op: ir.AddImm, Defs: []ir.Reg{ir.Virt(1)}, Uses: []ir.Reg{ir.Virt(2)}, Imm: -9223372036854775808}
	if got, want := neg.String(), refInstrString(neg); got != want {
		t.Errorf("AddImm with the least int64 printed %q, reference %q", got, want)
	}
}
