// Package experiments regenerates every table and figure of the paper's
// evaluation (§8). Each experiment is a pure function of (Options) that
// returns structured results plus a Render method producing the rows or
// series the paper reports. The registry at the bottom powers
// cmd/libra-bench and the root bench_test.go.
//
// Every experiment decomposes into independent (config × repetition ×
// sweep-cell) units — each a pure function of its derived seed — which
// the harness fans out over a bounded worker pool (Options.Parallel).
// Results merge in unit order, so renders are byte-identical for the
// same seed regardless of parallelism.
//
// Absolute numbers differ from the paper's physical testbeds (our
// substrate is a simulator — see DESIGN.md §1); the shapes — who wins, by
// roughly what factor, where crossovers fall — are the reproduction
// target and are recorded against the paper in EXPERIMENTS.md.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"

	"libra/internal/obs"
	"libra/internal/platform"
	"libra/internal/sim"
	"libra/internal/trace"
)

// Options control experiment scale.
type Options struct {
	// Seed drives every random choice; same seed, same report.
	Seed int64
	// Reps is how many repetitions results are averaged over (the paper
	// averages over five runs). Default 3.
	Reps int
	// Quick trims repetitions and sweep densities for fast test runs.
	Quick bool
	// Parallel bounds the worker pool that fans out an experiment's
	// independent units. 0 selects GOMAXPROCS; 1 runs serially. The
	// rendered output is identical for every value.
	Parallel int
	// Progress, when non-nil, is called after each completed unit of the
	// current fan-out. Calls are serialized; keep the callback fast.
	Progress func(ProgressEvent)
	// Trace, when non-nil, collects the full invocation-lifecycle trace of
	// every unit the experiment runs (DESIGN.md §6e). Each fan-out claims
	// one collector block and gives every unit its own recorder, so the
	// merged trace is byte-identical for every Parallel setting. nil (the
	// default) disables tracing entirely — no recorder is allocated and
	// the platforms run with a nil tracer.
	Trace *obs.Collector
}

// ProgressEvent reports one completed unit of a running fan-out.
type ProgressEvent struct {
	// Completed counts finished units of the current fan-out; Total is
	// its unit count. An experiment may run several fan-outs in
	// sequence, each restarting the count.
	Completed, Total int
}

func (o *Options) defaults() {
	if o.Reps == 0 {
		o.Reps = 3
	}
	if o.Quick {
		o.Reps = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// Experiment is a runnable unit of the harness.
type Experiment struct {
	ID    string // e.g. "fig6"
	Title string
	// Run regenerates the experiment. Cancellation is checked between
	// units: a cancelled context abandons unstarted units and returns
	// the context's error.
	Run func(ctx context.Context, opts Options) (Renderer, error)
}

// Renderer renders an experiment's result as the paper-style rows.
type Renderer interface {
	Render(w io.Writer)
}

// ErrNotFound is wrapped by ByID for unknown experiment IDs.
var ErrNotFound = errors.New("experiment not found")

var (
	regMu    sync.RWMutex
	registry = map[string]Experiment{}
)

// Register adds an experiment to the registry. It rejects empty IDs,
// nil Run functions, and IDs already registered.
func Register(e Experiment) error {
	if e.ID == "" {
		return errors.New("experiments: Register needs a non-empty ID")
	}
	if e.Run == nil {
		return fmt.Errorf("experiments: Register(%q) needs a Run function", e.ID)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[e.ID]; dup {
		return fmt.Errorf("experiments: duplicate experiment ID %q", e.ID)
	}
	registry[e.ID] = e
	return nil
}

// register is the init-time path: a failed registration is a programming
// error, so it panics.
func register(id, title string, run func(context.Context, Options) (Renderer, error)) {
	if err := Register(Experiment{ID: id, Title: title, Run: run}); err != nil {
		panic(err)
	}
}

// All returns every registered experiment sorted by ID in paper order
// (IDs outside the paper's sequence sort after it, alphabetically).
func All() []Experiment {
	regMu.RLock()
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		oi, oj := order(out[i].ID), order(out[j].ID)
		if oi != oj {
			return oi < oj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func order(id string) int {
	for i, k := range []string{
		"fig1", "table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "table2", "fig13", "fig14", "fig15", "fig16", "overheads",
	} {
		if k == id {
			return i
		}
	}
	return 99
}

// ByID finds an experiment; unknown IDs yield an error wrapping
// ErrNotFound.
func ByID(id string) (Experiment, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return e, nil
}

// ---- shared helpers ----

// runPlatform runs one platform config over a set, averaged metrics are
// the caller's business; this returns the raw result.
func runPlatform(cfg platform.Config, set trace.Set) *platform.Result {
	return mustPlatform(cfg).Run(set)
}

// mustPlatform builds a sim-engine platform from a preset config,
// panicking on the impossible invalid-config case (presets are correct
// by construction).
func mustPlatform(cfg platform.Config) *platform.Platform {
	p, err := platform.New(sim.NewEngine(), cfg)
	if err != nil {
		panic(err)
	}
	return p
}

func tw(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}
