package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
)

// AllocationDigest allocates every function sequentially, in order,
// and hashes each one's complete allocation outcome — spilled-web
// count, spill code, and the final rewritten code with its register
// assignments. Two implementations of the allocation pipeline that
// produce identical assignments and spill sets produce identical
// digests, so this is the before/after fingerprint the performance
// work is checked against.
func AllocationDigest(funcs []*ir.Func, m *target.Machine, allocName string) (string, error) {
	return AllocationDigestOpts(funcs, m, allocName, regalloc.Options{})
}

// AllocationDigestOpts is AllocationDigest with explicit driver
// options. The digest hashes only the allocation outcome, never the
// telemetry, so it is the tool for asserting that instrumentation
// observes without steering: digests must match with collection on
// and off.
func AllocationDigestOpts(funcs []*ir.Func, m *target.Machine, allocName string, opts regalloc.Options) (string, error) {
	h := sha256.New()
	for _, f := range funcs {
		alloc, err := NewAllocator(allocName)
		if err != nil {
			return "", err
		}
		out, stats, err := regalloc.Run(f, m, alloc, opts)
		if err != nil {
			return "", fmt.Errorf("bench: digest %s/%s: %w", allocName, f.Name, err)
		}
		writeFuncDigest(h, f.Name, stats, out.String())
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// FuncDigest fingerprints one already-completed allocation with the
// same per-function record AllocationDigest hashes, so a result served
// from a cache can be compared bit-for-bit against a fresh
// single-function AllocationDigest run. name is the input function's
// name (identical to out.Name under the driver, which never renames).
func FuncDigest(name string, stats *regalloc.Stats, out *ir.Func) string {
	return TextDigest(name, stats, out.String())
}

// TextDigest is FuncDigest over text, the already rendered
// out.String(), so a caller that renders the function anyway (the
// daemon's response) hashes those bytes instead of rendering twice.
func TextDigest(name string, stats *regalloc.Stats, text string) string {
	h := sha256.New()
	writeFuncDigest(h, name, stats, text)
	return hex.EncodeToString(h.Sum(nil))
}

// writeFuncDigest appends one function's allocation-outcome record —
// spilled-web count, spill code, final rewritten code (text) — to h.
func writeFuncDigest(h io.Writer, name string, stats *regalloc.Stats, text string) {
	fmt.Fprintf(h, "%s|webs=%d|loads=%d|stores=%d\n%s\n",
		name, stats.SpilledWebs, stats.SpillLoads, stats.SpillStores, text)
}
