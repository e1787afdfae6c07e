package bench

import (
	"testing"

	"prefcolor/internal/cfg"
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/ssa"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// coldCorpus is the large workload in both wire forms, the input to
// the cold-path microbenchmarks.
func coldCorpus(b *testing.B) (texts []string, wires [][]byte, bytesText, bytesBin int64) {
	b.Helper()
	m := target.UsageModel(16)
	for _, f := range workload.Generate(workload.Large(), m) {
		text := f.String()
		wire := ir.EncodeBinary(f)
		texts = append(texts, text)
		wires = append(wires, wire)
		bytesText += int64(len(text))
		bytesBin += int64(len(wire))
	}
	return
}

// BenchmarkParseText times the textual front end over the large
// workload — the cold path every /v1/allocate text request pays before
// the binary format existed.
func BenchmarkParseText(b *testing.B) {
	texts, _, nbytes, _ := coldCorpus(b)
	b.SetBytes(nbytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range texts {
			if _, err := ir.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDecodeBinary is BenchmarkParseText over the binary wire
// format; the ratio of the two ns/op columns is the decode speedup the
// format is accountable to.
func BenchmarkDecodeBinary(b *testing.B) {
	_, wires, _, nbytes := coldCorpus(b)
	b.SetBytes(nbytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, wire := range wires {
			if _, err := ir.DecodeBinary(wire); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEncodeBinary times the producer side (prefgc -emit-binary,
// the daemon's canonicalization).
func BenchmarkEncodeBinary(b *testing.B) {
	m := target.UsageModel(16)
	funcs := workload.Generate(workload.Large(), m)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range funcs {
			buf = ir.AppendBinary(buf[:0], f)
		}
	}
}

// BenchmarkGraphBuild times interference-graph construction alone —
// the functions are destructed and renumbered once outside the loop,
// liveness is precomputed, and the graph is rebuilt into a reused
// scratch every iteration — so the word-at-a-time build kernel's gain
// is visible without allocator noise.
func BenchmarkGraphBuild(b *testing.B) {
	m := target.UsageModel(16)
	funcs := workload.Generate(workload.Large(), m)
	type prepared struct {
		f     *ir.Func
		loops *cfg.LoopInfo
		live  *liveness.Info
	}
	var prep []prepared
	for _, f := range funcs {
		ssa.Destruct(f)
		if _, err := ig.Renumber(f); err != nil {
			b.Fatal(err)
		}
		dom := cfg.NewDomTree(f)
		prep = append(prep, prepared{f: f, loops: cfg.FindLoops(f, dom), live: liveness.Compute(f)})
	}
	ws := &ig.GraphScratch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range prep {
			if _, err := ig.BuildInto(ws, p.f, m, p.loops, p.live); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRenumber times web discovery (liveness, may-be-defined
// bitsets and the union-find) with a reused scratch. The functions are
// already in web form after the first pass, which is exactly the
// driver's steady state: every spill round renumbers already-renumbered
// code.
func BenchmarkRenumber(b *testing.B) {
	m := target.UsageModel(16)
	funcs := workload.Generate(workload.Large(), m)
	ws := &ig.RenumberScratch{}
	for _, f := range funcs {
		ssa.Destruct(f)
		if _, err := ig.RenumberInto(f, ws); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range funcs {
			if _, err := ig.RenumberInto(f, ws); err != nil {
				b.Fatal(err)
			}
		}
	}
}
