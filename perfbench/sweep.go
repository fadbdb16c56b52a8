package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"libra/internal/experiments"
	"libra/internal/obs"
)

// goldenSeed is the seed the committed golden renders were made with.
// The sweep always runs at it, in registry order, so every render can
// be checked byte for byte and every run does the same work; the
// benchmark seed does not change the sweep's input.
const goldenSeed = 42

// goldenDir holds the committed quick-mode renders, relative to the
// checkout root the benchmark runs from.
var goldenDir = filepath.Join("internal", "experiments", "testdata", "golden")

// sweepPlan is the sweep's input: the registered experiments, each
// with its golden render.
type sweepPlan struct {
	exps    []experiments.Experiment
	goldens [][]byte
}

func loadSweepPlan() (*sweepPlan, error) {
	exps := experiments.All()
	plan := &sweepPlan{exps: exps}
	for _, e := range exps {
		g, err := os.ReadFile(filepath.Join(goldenDir, e.ID+".txt"))
		if err != nil {
			return nil, fmt.Errorf("golden render: %w", err)
		}
		plan.goldens = append(plan.goldens, g)
	}
	return plan, nil
}

// sweepOutcome is one pass over every experiment.
type sweepOutcome struct {
	seconds float64   // the whole sweep
	perExp  []float64 // host seconds per experiment, in plan order
	unitsAt []float64 // seconds from the sweep's start to each fan-out unit's completion
	counts  eventCounts
}

// sweep runs every experiment of the plan in quick mode with one worker
// per CPU, checking each render against its golden. With traced set,
// every experiment also records its full obs trace, which is folded
// into event counts and dropped before the next experiment runs.
func (p *sweepPlan) sweep(traced bool, res *result) (sweepOutcome, error) {
	out := sweepOutcome{perExp: make([]float64, len(p.exps))}
	t0 := time.Now()
	for i, e := range p.exps {
		opts := experiments.Options{
			Seed:     goldenSeed,
			Quick:    true,
			Parallel: runtime.NumCPU(),
			Progress: func(experiments.ProgressEvent) {
				out.unitsAt = append(out.unitsAt, time.Since(t0).Seconds())
			},
		}
		if traced {
			opts.Trace = obs.NewCollector()
		}
		e0 := time.Now()
		r, err := e.Run(context.Background(), opts)
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		var buf bytes.Buffer
		r.Render(&buf)
		out.perExp[i] = time.Since(e0).Seconds()
		res.attempted++
		if !bytes.Equal(buf.Bytes(), p.goldens[i]) {
			res.failed++
			res.check(false, "experiment %s render differs from %s", e.ID, filepath.Join(goldenDir, e.ID+".txt"))
		}
		if traced {
			for _, ev := range opts.Trace.Events() {
				out.counts.add(ev)
			}
		}
	}
	out.seconds = time.Since(t0).Seconds()
	return out, nil
}

func runSweep(cfg runConfig, res *result) error {
	// Loading the plan is the sweep's whole set-up and takes well under a
	// millisecond, so it is repeated to give a median worth comparing.
	var plan *sweepPlan
	setupS, err := timeSetup(200, func() (err error) {
		plan, err = loadSweepPlan()
		return err
	})
	if err != nil {
		return err
	}

	if cfg.traced {
		runtime.GC()
		plain, err := plan.sweep(false, res)
		if err != nil {
			return err
		}
		runtime.GC()
		traced, err := plan.sweep(true, res)
		if err != nil {
			return err
		}
		for i, e := range plan.exps {
			res.set(experimentMetric(e.ID), plain.perExp[i])
		}
		res.set("experiments.units", float64(len(plain.unitsAt)))
		res.check(len(traced.unitsAt) == len(plain.unitsAt), "traced sweep ran %d units, untraced %d",
			len(traced.unitsAt), len(plain.unitsAt))
		traced.counts.report(res)
		res.set("obs.overhead_pct", (traced.seconds-plain.seconds)/plain.seconds*100)
		return nil
	}

	// The sweep's latencies are those of its fan-out units, all submitted
	// at its start: the p50 is when half of them had completed, and the
	// tail is the whole sweep's time, the wait for its last render.
	var rates, p50s, sweeps []float64
	end := cfg.deadline(time.Now())
	for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
		runtime.GC()
		o, err := plan.sweep(false, res)
		if err != nil {
			return err
		}
		rates = append(rates, float64(len(o.unitsAt))/o.seconds)
		p50s = append(p50s, median(o.unitsAt))
		sweeps = append(sweeps, o.seconds)
	}
	res.set("throughput_per_s", median(rates))
	res.set("latency_p50_ms", median(p50s)*1e3)
	res.set("latency_tail_ms", median(sweeps)*1e3)
	res.set("setup_s", setupS)
	return nil
}
