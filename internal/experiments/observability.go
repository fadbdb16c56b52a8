package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"libra/internal/faults"
	"libra/internal/metrics"
	"libra/internal/obs"
	"libra/internal/platform"
	"libra/internal/trace"
)

// FigO1Cell is one platform's mean per-invocation latency decomposition,
// averaged over repetitions.
type FigO1Cell struct {
	Platform string
	Summary  metrics.BreakdownSummary
	// MaxGap is the largest |Sched+Startup+Exec+Stall − (End−Arrival)|
	// over every completed invocation — the telescoping check that the
	// trace spans account for the whole response latency.
	MaxGap float64
}

// FigO1Result is the Fig 13-style latency breakdown derived entirely
// from the obs lifecycle trace rather than from platform counters.
type FigO1Result struct {
	Cells []FigO1Cell
}

// FigO1Breakdown runs the four platforms of §8.4 on the multi-node
// testbed under a mild fault mix (OOM kills on, 5% stragglers, no
// crashes) with lifecycle tracing enabled, then folds each run's trace
// into per-invocation phase spans (scheduling / startup / execution /
// re-rate stall) and reports the per-platform means. The trace is the
// sole data source — the MaxGap column audits that the spans telescope
// to the end-to-end latency the platform reported.
//
// When Options.Trace is set the runs record into the caller's collector
// (so libra-bench -trace exports them); otherwise a private collector is
// used and discarded after aggregation.
func FigO1Breakdown(ctx context.Context, o Options) (Renderer, error) {
	o.defaults()
	tb := platform.MultiNode()
	presets := []platform.Config{
		platform.PresetDefault(tb, o.Seed),
		platform.PresetFreyr(tb, o.Seed),
		platform.PresetLibra(tb, o.Seed),
		platform.PresetLibraNS(tb, o.Seed),
	}
	var cells []cell
	for _, cfg := range presets {
		cfg.Faults = faults.Config{OOMKill: true, StragglerFraction: 0.05}
		cells = append(cells, cell{cfg: cfg, mkSet: func(seed int64) trace.Set {
			return trace.MultiSet(120, seed)
		}})
	}

	// This experiment needs the trace even when the caller didn't ask for
	// one, so it claims its block from a private collector in that case.
	col := o.Trace
	if col == nil {
		col = obs.NewCollector()
	}
	reps := o.Reps
	blk := col.Block(len(cells) * reps)
	_, err := fanOut(ctx, o, len(cells)*reps, func(i int) struct{} {
		c, r := cells[i/reps], i%reps
		seed := o.Seed + int64(r)*101
		cfg := c.cfg
		cfg.Seed = seed
		cfg.Tracer = blk.Unit(i)
		runPlatform(cfg, c.mkSet(seed))
		return struct{}{}
	})
	if err != nil {
		return nil, err
	}

	res := &FigO1Result{}
	for ci := range cells {
		c := FigO1Cell{Platform: cells[ci].cfg.Name}
		for r := 0; r < reps; r++ {
			// Invocation IDs restart per run, so each repetition's trace
			// folds separately before the summaries merge.
			bds := metrics.BreakdownFromEvents(blk.Events(ci*reps + r))
			for _, b := range bds {
				if !b.Completed {
					continue
				}
				if gap := math.Abs(b.Sum() - b.Total); gap > c.MaxGap {
					c.MaxGap = gap
				}
			}
			c.Summary.Add(metrics.SummarizeBreakdowns(bds))
		}
		res.Cells = append(res.Cells, c)
	}
	return res, nil
}

// Render implements Renderer.
func (r *FigO1Result) Render(w io.Writer) {
	t := tw(w)
	fmt.Fprintln(t, "Fig O1 — per-invocation latency breakdown from lifecycle traces (multi-node, OOM kills + 5% stragglers)")
	fmt.Fprintln(t, "platform\tcompleted\tabandoned\tsched\tstartup\texec\tstall\te2e\tretries/inv\tmax|Σ−e2e|")
	for _, c := range r.Cells {
		s := c.Summary
		fmt.Fprintf(t, "%s\t%d\t%d\t%.3fs\t%.3fs\t%.3fs\t%.3fs\t%.3fs\t%.3f\t%.1e\n",
			c.Platform, s.Count, s.Abandoned, s.Sched, s.Startup, s.Exec,
			s.Stall, s.Total, s.MeanRetries, c.MaxGap)
	}
	t.Flush()
}

func init() {
	register("figo1", "Observability: latency breakdown from invocation traces", FigO1Breakdown)
}
