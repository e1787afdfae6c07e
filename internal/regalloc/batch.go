package regalloc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"prefcolor/internal/ir"
	"prefcolor/internal/target"
	"prefcolor/internal/telemetry"
)

// BatchOptions configures AllocateAll.
type BatchOptions struct {
	Options

	// NewAllocator returns a fresh allocator for one function.
	// Allocator instances are stateful, so one cannot be shared
	// across concurrently-allocated functions. Required.
	NewAllocator func() Allocator

	// Workers bounds the worker pool; zero or negative means
	// GOMAXPROCS.
	Workers int
}

// BatchResult holds the per-function outputs of AllocateAll,
// index-aligned with the input slice.
type BatchResult struct {
	Funcs []*ir.Func
	Stats []*Stats

	// Telemetry is the batch's merged instrumentation report; nil
	// unless Options.CollectTelemetry (or a TraceWriter) was set.
	// Every worker aggregates its own functions' snapshots privately
	// — no locks, no shared counters — and the per-worker partials
	// are merged once after the pool drains. All snapshot fields are
	// integral sums, so the merged report is identical whatever the
	// scheduling.
	Telemetry *telemetry.Snapshot
}

// AllocateAll runs the full allocation driver over every function
// with a bounded worker pool. Each function's allocation is
// independent (Run clones its input), so the batch is embarrassingly
// parallel; results land at the input's index, making the output —
// and the error, which is always the lowest-index failure — identical
// regardless of worker count or scheduling.
func AllocateAll(funcs []*ir.Func, m *target.Machine, opts BatchOptions) (*BatchResult, error) {
	if opts.NewAllocator == nil {
		return nil, fmt.Errorf("regalloc: AllocateAll requires a NewAllocator factory")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(funcs))

	runOpts := opts.Options
	if runOpts.TraceWriter != nil {
		// One trace stream, many workers: serialize whole lines.
		runOpts.TraceWriter = telemetry.NewLockedWriter(runOpts.TraceWriter)
	}

	res := &BatchResult{
		Funcs: make([]*ir.Func, len(funcs)),
		Stats: make([]*Stats, len(funcs)),
	}
	errs := make([]error, len(funcs))
	var next atomic.Int64 // index of the next function to take
	workerSnaps := make([]telemetry.Snapshot, workers)
	var wg sync.WaitGroup
	for w := range workerSnaps {
		wg.Add(1)
		go func(snap *telemetry.Snapshot) {
			defer wg.Done()
			// Workspaces are single-owner: each worker gets its own,
			// reused across all the functions it takes. Any workspace
			// the caller set on Options is deliberately not shared.
			wopts := runOpts
			wopts.Workspace = NewWorkspace()
			for i := int(next.Add(1) - 1); i < len(funcs); i = int(next.Add(1) - 1) {
				// A done context fails the remaining functions without
				// starting them; Run re-checks between phases, so
				// in-flight allocations stop at their next boundary.
				err := wopts.interrupted("batch")
				if err == nil {
					res.Funcs[i], res.Stats[i], err = Run(funcs[i], m, opts.NewAllocator(), wopts)
				}
				if err != nil {
					errs[i] = err
					continue
				}
				snap.Merge(res.Stats[i].Telemetry)
			}
		}(&workerSnaps[w])
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("regalloc: function %d (%s): %w", i, funcs[i].Name, err)
		}
	}
	if runOpts.telemetryOn() {
		merged := &telemetry.Snapshot{}
		for w := range workerSnaps {
			merged.Merge(&workerSnaps[w])
		}
		res.Telemetry = merged
	}
	return res, nil
}
