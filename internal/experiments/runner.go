package experiments

import (
	"context"
	"runtime"
	"sync"

	"libra/internal/obs"
	"libra/internal/platform"
	"libra/internal/trace"
)

// workers resolves the effective pool width.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// fanOut runs n independent units on the options' worker pool and
// returns their results indexed by unit, so merge order never depends on
// completion order. Each unit must be a pure function of its index (no
// shared mutable state); every unit derives its own randomness from its
// index, which is what keeps parallel renders byte-identical to serial
// ones.
//
// Cancellation is checked between units: once ctx is done no new unit
// starts, in-flight units finish, and fanOut reports ctx.Err().
func fanOut[T any](ctx context.Context, o Options, n int, unit func(i int) T) ([]T, error) {
	out := make([]T, n)
	var (
		mu   sync.Mutex
		done int
	)
	report := func() {
		if o.Progress == nil {
			return
		}
		// The lock serializes callbacks and keeps Completed monotonic.
		mu.Lock()
		done++
		o.Progress(ProgressEvent{Completed: done, Total: n})
		mu.Unlock()
	}

	w := o.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out[i] = unit(i)
			report()
		}
		return out, nil
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = unit(i)
				report()
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return out, ctx.Err()
}

// cell is one sweep point: a platform config and its trace maker.
type cell struct {
	cfg   platform.Config
	mkSet func(seed int64) trace.Set
}

// sweepResults fans out every (cell × repetition) unit and returns the
// raw results as results[cell][rep]. Repetition r of every cell derives
// seed o.Seed + 101·r — the same derivation the serial harness has
// always used, so sweep numbers are unchanged — and both the config and
// the trace are regenerated from that seed, as in the paper's five-run
// averages.
func sweepResults(ctx context.Context, o Options, cells []cell) ([][]*platform.Result, error) {
	reps := o.Reps
	blk := traceBlock(o, len(cells)*reps)
	flat, err := fanOut(ctx, o, len(cells)*reps, func(i int) *platform.Result {
		c, r := cells[i/reps], i%reps
		seed := o.Seed + int64(r)*101
		cfg := c.cfg
		cfg.Seed = seed
		cfg.Tracer = unitTracer(blk, i)
		return runPlatform(cfg, c.mkSet(seed))
	})
	if err != nil {
		return nil, err
	}
	out := make([][]*platform.Result, len(cells))
	for i := range out {
		out[i] = flat[i*reps : (i+1)*reps]
	}
	return out, nil
}

// singleRuns fans out one run per cell at the base seed (no repetition
// averaging — the timeline and scatter figures show a single run).
func singleRuns(ctx context.Context, o Options, cells []cell) ([]*platform.Result, error) {
	blk := traceBlock(o, len(cells))
	return fanOut(ctx, o, len(cells), func(i int) *platform.Result {
		cfg := cells[i].cfg
		cfg.Seed = o.Seed
		cfg.Tracer = unitTracer(blk, i)
		return runPlatform(cfg, cells[i].mkSet(o.Seed))
	})
}

// traceBlock claims a collector block for an n-unit fan-out, or nil when
// tracing is off. Blocks are claimed before the fan-out starts and units
// are pre-allocated, so workers never synchronize on the collector and
// the merged event order is a pure function of (block, unit) indices.
func traceBlock(o Options, n int) *obs.Block {
	if o.Trace == nil {
		return nil
	}
	return o.Trace.Block(n)
}

// unitTracer resolves unit i's recorder; a nil block keeps the platform's
// tracer nil (zero-cost untraced run).
func unitTracer(blk *obs.Block, i int) obs.Tracer {
	if blk == nil {
		return nil
	}
	return blk.Unit(i)
}
