package core

import "prefcolor/internal/regalloc"

// coreScratch is the preference allocator's per-workspace scratch: the
// RPG, the removal order with simplify's buffers, and the selector,
// reused across spill rounds. It lives on regalloc.Workspace's opaque allocator slot
// (core imports regalloc, so the workspace cannot name this type).
// Like the workspace itself, everything here is cleared on borrow and
// owned by one Run at a time.
type coreScratch struct {
	rpg RPG
	ord removalOrder
	sel selector
}

// coreScratchFor recovers (or installs) the allocator scratch on the
// context's workspace; without a workspace it returns a fresh one, so
// one-shot contexts behave exactly as before pooling existed.
func coreScratchFor(ctx *regalloc.Context) *coreScratch {
	w := ctx.Workspace
	if w == nil {
		return &coreScratch{}
	}
	if cs, ok := w.AllocatorScratch().(*coreScratch); ok {
		return cs
	}
	cs := &coreScratch{}
	w.SetAllocatorScratch(cs)
	return cs
}
