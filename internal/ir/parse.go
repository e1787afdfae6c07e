package ir

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Parse reads a function in the textual syntax produced by
// Func.String. The grammar, line oriented:
//
//	func NAME(v0, v1) {
//	b0:
//	  v2 = load v0, 0
//	  v3 = add v2, v1
//	  branch v3, b1, b2
//	b1:
//	  v4 = call @f v3
//	  jump b2
//	b2:
//	  v5 = phi v3, v4
//	  ret v5
//	}
//
// Text after ';' on any line is a comment. Jump and branch targets
// become the block's successor list. The parsed function is validated
// before being returned.
func Parse(src string) (*Func, error) {
	p := &parser{}
	if err := p.run(src); err != nil {
		return nil, err
	}
	p.f.RecomputePreds()
	if err := Validate(p.f); err != nil {
		var pe *PosError
		if errors.As(err, &pe) {
			if line := p.lineOf(pe); line > 0 {
				return nil, fmt.Errorf("ir.Parse: line %d: invalid function: %w", line, err)
			}
		}
		return nil, fmt.Errorf("ir.Parse: invalid function: %w", err)
	}
	return p.f, nil
}

// MustParse is Parse for tests and examples; it panics on error.
func MustParse(src string) *Func {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

type parser struct {
	f      *Func
	cur    *Block
	blocks map[string]*Block
	line   int

	// Source coordinates for post-parse validation diagnostics: the
	// line of each block's label and of each instruction appended to
	// it, keyed by block since IDs may be assigned by forward
	// reference before the label line is seen.
	blockLine  map[*Block]int
	instrLines map[*Block][]int
}

// lineOf maps a validation error's (block, instr) coordinates back to
// a source line; 0 when unknown.
func (p *parser) lineOf(pe *PosError) int {
	if int(pe.Block) >= len(p.f.Blocks) {
		return 0
	}
	b := p.f.Blocks[pe.Block]
	if pe.Instr >= 0 {
		if lines := p.instrLines[b]; pe.Instr < len(lines) {
			return lines[pe.Instr]
		}
		return 0
	}
	return p.blockLine[b]
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("ir.Parse: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

// block returns (creating on demand) the block with the given label,
// so forward references to not-yet-declared blocks work.
func (p *parser) block(label string) (*Block, error) {
	if b, ok := p.blocks[label]; ok {
		return b, nil
	}
	if !strings.HasPrefix(label, "b") {
		return nil, p.errf("bad block label %q", label)
	}
	n, err := strconv.Atoi(label[1:])
	if err != nil || n < 0 {
		return nil, p.errf("bad block label %q", label)
	}
	for len(p.f.Blocks) <= n {
		p.f.NewBlock()
	}
	b := p.f.Blocks[n]
	p.blocks[label] = b
	return b, nil
}

func (p *parser) reg(tok string) (Reg, error) {
	if len(tok) < 2 {
		return NoReg, p.errf("bad register %q", tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 {
		return NoReg, p.errf("bad register %q", tok)
	}
	// The same encodable ranges DecodeBinary enforces.
	switch tok[0] {
	case 'v':
		if n > math.MaxInt32-int(FirstVirtual) {
			return NoReg, p.errf("virtual register %q out of range", tok)
		}
		if n >= p.f.NumVirt {
			p.f.NumVirt = n + 1
		}
		return Virt(n), nil
	case 'r':
		if n >= int(FirstVirtual)-1 {
			return NoReg, p.errf("physical register %q out of range", tok)
		}
		return Phys(n), nil
	}
	return NoReg, p.errf("bad register %q", tok)
}

func (p *parser) run(src string) error {
	p.f = NewFunc("")
	p.blocks = map[string]*Block{}
	p.blockLine = map[*Block]int{}
	p.instrLines = map[*Block][]int{}
	sawHeader, sawClose := false, false
	for _, raw := range strings.Split(src, "\n") {
		p.line++
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "func "):
			if sawHeader {
				return p.errf("duplicate func header")
			}
			if err := p.header(line); err != nil {
				return err
			}
			sawHeader = true
		case line == "}":
			sawClose = true
		case strings.HasSuffix(line, ":"):
			b, err := p.block(strings.TrimSuffix(line, ":"))
			if err != nil {
				return err
			}
			p.cur = b
			p.blockLine[b] = p.line
		default:
			if !sawHeader {
				return p.errf("instruction before func header")
			}
			if p.cur == nil {
				return p.errf("instruction outside any block")
			}
			if err := p.instr(line); err != nil {
				return err
			}
		}
	}
	if !sawHeader {
		return fmt.Errorf("ir.Parse: no func header")
	}
	if !sawClose {
		return fmt.Errorf("ir.Parse: missing closing brace")
	}
	return nil
}

func (p *parser) header(line string) error {
	rest := strings.TrimPrefix(line, "func ")
	open := strings.IndexByte(rest, '(')
	closeIdx := strings.LastIndexByte(rest, ')')
	if open < 0 || closeIdx < open {
		return p.errf("malformed func header")
	}
	p.f.Name = strings.TrimSpace(rest[:open])
	params := strings.TrimSpace(rest[open+1 : closeIdx])
	if params != "" {
		for _, tok := range splitOperands(params) {
			r, err := p.reg(tok)
			if err != nil {
				return err
			}
			p.f.Params = append(p.f.Params, r)
		}
	}
	return nil
}

func splitOperands(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

func (p *parser) instr(line string) error {
	var defs []Reg
	body := line
	if i := strings.Index(line, " = "); i >= 0 {
		for _, tok := range splitOperands(line[:i]) {
			r, err := p.reg(tok)
			if err != nil {
				return err
			}
			defs = append(defs, r)
		}
		body = strings.TrimSpace(line[i+3:])
	}
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return p.errf("empty instruction")
	}
	op, ok := opByName[fields[0]]
	if !ok {
		return p.errf("unknown op %q", fields[0])
	}
	rest := strings.TrimSpace(strings.TrimPrefix(body, fields[0]))
	in := Instr{Op: op, Defs: defs}

	if op == Call {
		if !strings.HasPrefix(rest, "@") {
			return p.errf("call needs @target")
		}
		rest = rest[1:]
		if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
			in.Sym = rest[:sp]
			rest = strings.TrimSpace(rest[sp:])
		} else {
			in.Sym = rest
			rest = ""
		}
	}

	operands := splitOperands(rest)
	takesImm := false
	switch op {
	case LoadImm, Load, Store, SpillLoad, SpillStore, AddImm:
		takesImm = true
	}
	if takesImm {
		if len(operands) == 0 {
			return p.errf("%v needs an immediate", op)
		}
		imm, err := strconv.ParseInt(operands[len(operands)-1], 10, 64)
		if err != nil {
			return p.errf("bad immediate %q", operands[len(operands)-1])
		}
		in.Imm = imm
		operands = operands[:len(operands)-1]
	}

	// Control-flow targets come last for jump/branch.
	switch op {
	case Jump:
		if len(operands) != 1 {
			return p.errf("jump wants one target")
		}
		t, err := p.block(operands[0])
		if err != nil {
			return err
		}
		p.cur.Succs = []BlockID{t.ID}
		operands = nil
	case Branch:
		if len(operands) != 3 {
			return p.errf("branch wants cond and two targets")
		}
		cond, err := p.reg(operands[0])
		if err != nil {
			return err
		}
		t1, err := p.block(operands[1])
		if err != nil {
			return err
		}
		t2, err := p.block(operands[2])
		if err != nil {
			return err
		}
		in.Uses = []Reg{cond}
		p.cur.Succs = []BlockID{t1.ID, t2.ID}
		operands = nil
	}

	for _, tok := range operands {
		r, err := p.reg(tok)
		if err != nil {
			return err
		}
		in.Uses = append(in.Uses, r)
	}
	p.cur.Instrs = append(p.cur.Instrs, in)
	p.instrLines[p.cur] = append(p.instrLines[p.cur], p.line)
	return nil
}
