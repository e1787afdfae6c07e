// Benchmarks: one testing.B per figure panel of the paper's
// evaluation (the full tables come from cmd/figures), plus
// micro-benchmarks for the pipeline stages and each allocator.
//
// The figure benchmarks run a representative benchmark subset per
// iteration so that `go test -bench=.` stays tractable; pass
// -benchtime=1x for a single full measurement.
package prefcolor_test

import (
	"testing"

	"prefcolor"
	"prefcolor/internal/cfg"
	"prefcolor/internal/core"
	"prefcolor/internal/ig"
	"prefcolor/internal/ir"
	"prefcolor/internal/liveness"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/ssa"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// Figure 9: coalescing and spill ratios against the Chaitin base.

func benchmarkFigure9(b *testing.B, k int) {
	for i := 0; i < b.N; i++ {
		rows, err := prefcolor.Figure9(k, "jess", "mpegaudio")
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFigure9Panels_ab_16regs(b *testing.B) { benchmarkFigure9(b, 16) }
func BenchmarkFigure9Panels_cd_32regs(b *testing.B) { benchmarkFigure9(b, 32) }

// Figure 10: estimated execution cost under the three configurations.

func benchmarkFigure10(b *testing.B, k int) {
	for i := 0; i < b.N; i++ {
		if _, err := prefcolor.Figure10(k, "jess", "mpegaudio"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10Panel_a_16regs(b *testing.B) { benchmarkFigure10(b, 16) }
func BenchmarkFigure10Panel_b_24regs(b *testing.B) { benchmarkFigure10(b, 24) }
func BenchmarkFigure10Panel_c_32regs(b *testing.B) { benchmarkFigure10(b, 32) }

// Figure 11: relative cost against full preferences at 24 registers.

func BenchmarkFigure11_24regs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := prefcolor.Figure11("jess", "db"); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-allocator cost on one mid-size workload function.

func benchFunc(b *testing.B) (*ir.Func, *target.Machine) {
	b.Helper()
	m := target.UsageModel(16)
	p, err := workload.ByName("javac")
	if err != nil {
		b.Fatal(err)
	}
	return workload.Generate(p, m)[0], m
}

func BenchmarkAllocator(b *testing.B) {
	f, m := benchFunc(b)
	for _, name := range prefcolor.AllocatorNames() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alloc, err := prefcolor.AllocatorByName(name)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := regalloc.Run(f, m, alloc, regalloc.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Pipeline micro-benchmarks.

func BenchmarkRenumber(b *testing.B) {
	f, _ := benchFunc(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := f.Clone()
		if _, err := ig.Renumber(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterferenceBuild(b *testing.B) {
	f, m := benchFunc(b)
	g := f.Clone()
	if _, err := ig.Renumber(g); err != nil {
		b.Fatal(err)
	}
	loops := cfg.FindLoops(g, cfg.NewDomTree(g))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ig.Build(g, m, loops); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLiveness(b *testing.B) {
	f, _ := benchFunc(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		liveness.Compute(f)
	}
}

func BenchmarkSSARoundTrip(b *testing.B) {
	f, _ := benchFunc(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := f.Clone()
		ssa.Build(g)
		ssa.Destruct(g)
	}
}

func BenchmarkCPGBuild(b *testing.B) {
	f, m := benchFunc(b)
	g := f.Clone()
	if _, err := ig.Renumber(g); err != nil {
		b.Fatal(err)
	}
	ctx, err := regalloc.NewContext(g, m, nil)
	if err != nil {
		b.Fatal(err)
	}
	stack, pot := core.SimplifyForBench(ctx.Graph, ctx.K())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildCPG(ctx.Graph, stack, pot, ctx.K()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	m := target.UsageModel(16)
	p, err := workload.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.Generate(p, m)
	}
}
