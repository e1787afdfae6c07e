package regalloc

import (
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/target"
)

// RoundLoop steps Run's round loop for the external tests: Begin
// builds a round's context, patched from the previous round's after
// round 1, and Spill inserts the round's spill code.
type RoundLoop struct{ rs *rounds }

// NewRoundLoop readies the loop over a copy of input, in opts's
// workspace or a fresh one.
func NewRoundLoop(input *ir.Func, m *target.Machine, opts Options) *RoundLoop {
	ws := opts.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}
	return &RoundLoop{newRounds(ws, input.Clone(), m, opts, nil)}
}

// Begin starts the next round; info is its numbering.
func (l *RoundLoop) Begin() (ctx *Context, info *ig.RenumberInfo, err error) {
	ctx, err = l.rs.begin()
	return ctx, l.rs.info, err
}

// Spill inserts the spill code for res, the current round's result.
func (l *RoundLoop) Spill(res *Result) { l.rs.spill(res, &Stats{}) }

// Rebuild renumbers a copy of the loop's function from scratch and
// analyzes it without a workspace: what the next Begin must equal.
func (l *RoundLoop) Rebuild() (*Context, *ig.RenumberInfo, error) {
	f := l.rs.f.Clone()
	info, err := ig.RenumberInto(f, nil)
	if err != nil {
		return nil, nil, err
	}
	ctx, err := NewContextIn(nil, f, l.rs.m, markOrigins(nil, info, l.rs.tempRegs))
	return ctx, info, err
}
