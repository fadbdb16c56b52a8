// Package simtest is the differential-replay harness that pins the
// repo's strongest invariant: a platform run is a pure function of
// (config, workload) and must not depend on which clock implementation
// drives it. Both clock drivers — the serial sim engine and the wall
// driver under a manual time source (the live-serving code path,
// replayed deterministically) — must produce byte-identical reports and
// byte-identical invocation-lifecycle traces for the same case.
//
// Tests describe a Case (config + workload), pick engine factories, and
// call Run: the harness replays the case once per engine, audits each
// run (drained queue, non-empty trace), and DeepEquals every run
// against the first engine's — reporting the first diverging trace
// event, not just "not equal", so a determinism regression points at
// the exact instant the schedules forked.
package simtest

import (
	"reflect"
	"strconv"
	"testing"

	"libra/internal/clock"
	"libra/internal/core"
	"libra/internal/obs"
	"libra/internal/sim"
	"libra/internal/trace"
)

// EngineFactory names and constructs one clock implementation. New is
// called once per replay so engines are never shared between runs. The
// clock must be a clock.Runner (core.RunOn drains it synchronously).
type EngineFactory struct {
	Name string
	New  func() clock.Clock
}

// Serial is the reference implementation: the single-heap sim engine.
func Serial() EngineFactory {
	return EngineFactory{Name: "sim", New: func() clock.Clock { return sim.NewEngine() }}
}

// WallManual is the live wall-clock driver under a mocked time source:
// the live-serving code path, replayed deterministically.
func WallManual() EngineFactory {
	return EngineFactory{
		Name: "wall-manual",
		New:  func() clock.Clock { return clock.NewDriver(clock.NewManualSource()) },
	}
}

// Case is one replay scenario: a core configuration plus the workload
// trace it runs. The harness installs its own trace recorder, so
// Config.Tracer must be nil.
type Case struct {
	Name     string
	Config   core.Config
	Workload trace.Set
}

// Result is one engine's replay of a case.
type Result struct {
	Engine string
	Report *core.Report
	Events []obs.Event
}

// auditable is what every engine exposes for the post-run audit.
type auditable interface {
	Pending() int
	Fired() uint64
}

// Run replays the case on every engine and fails t on the first
// divergence from the first engine (the reference). It returns the
// per-engine results so callers can layer scenario assertions (e.g.
// "this chaos schedule actually crashed nodes") on the reference run.
func Run(t *testing.T, c Case, engines ...EngineFactory) []Result {
	t.Helper()
	if len(engines) == 0 {
		t.Fatal("simtest: no engines given")
	}
	if c.Config.Tracer != nil {
		t.Fatal("simtest: Case.Config.Tracer must be nil; the harness installs its own recorder")
	}
	results := make([]Result, 0, len(engines))
	for _, e := range engines {
		rec := obs.NewRecorder()
		cfg := c.Config
		cfg.Tracer = rec
		clk := e.New()
		rep, err := core.RunOn(clk, cfg, c.Workload)
		if err != nil {
			t.Fatalf("%s/%s: run failed: %v", c.Name, e.Name, err)
		}
		if a, ok := clk.(auditable); ok {
			if a.Pending() != 0 {
				t.Errorf("%s/%s: %d events still pending after drain", c.Name, e.Name, a.Pending())
			}
			if a.Fired() == 0 {
				t.Errorf("%s/%s: engine fired no events", c.Name, e.Name)
			}
		}
		results = append(results, Result{Engine: e.Name, Report: rep, Events: rec.Events()})
	}
	ref := results[0]
	if len(ref.Events) == 0 {
		t.Errorf("%s/%s: reference run recorded no trace events", c.Name, ref.Engine)
	}
	for _, r := range results[1:] {
		diff(t, c.Name, ref, r)
	}
	return results
}

// diff fails t with the first observable divergence between the
// reference replay and another engine's replay of the same case.
func diff(t *testing.T, caseName string, ref, got Result) {
	t.Helper()
	if !reflect.DeepEqual(ref.Report, got.Report) {
		t.Errorf("%s: reports diverge:\n %-12s %+v\n %-12s %+v",
			caseName, ref.Engine+":", ref.Report, got.Engine+":", got.Report)
	}
	if reflect.DeepEqual(ref.Events, got.Events) {
		return
	}
	n := len(ref.Events)
	if len(got.Events) < n {
		n = len(got.Events)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(ref.Events[i], got.Events[i]) {
			t.Fatalf("%s: traces diverge at event %d:\n %-12s %+v\n %-12s %+v",
				caseName, i, ref.Engine+":", ref.Events[i], got.Engine+":", got.Events[i])
		}
	}
	t.Fatalf("%s: trace lengths diverge: %s recorded %d events, %s recorded %d (first %d identical)",
		caseName, ref.Engine, len(ref.Events), got.Engine, len(got.Events), n)
}

// Matrix enumerates replay cases over the orthogonal axes a divergence
// could hide behind: variant (scheduler/harvester combinations), seed
// (workload shape), fault schedule, and autoscale config. Zero values
// on an axis mean "off"; Workload builds the trace for each cell.
type Matrix struct {
	Variants  []core.Variant
	Seeds     []int64
	Faults    []FaultAxis
	Autoscale []AutoscaleAxis
	Testbed   core.Testbed
	Workload  func(variant core.Variant, seed int64) trace.Set
}

// FaultAxis is one named point on the fault-injection axis.
type FaultAxis struct {
	Name   string
	Config core.Config // only Faults is read
}

// AutoscaleAxis is one named point on the elasticity axis.
type AutoscaleAxis struct {
	Name   string
	Config core.Config // only Autoscale is read
}

// Cases expands the matrix into the full cross product.
func (m Matrix) Cases() []Case {
	faults := m.Faults
	if len(faults) == 0 {
		faults = []FaultAxis{{Name: "nofaults"}}
	}
	scale := m.Autoscale
	if len(scale) == 0 {
		scale = []AutoscaleAxis{{Name: "static"}}
	}
	var cases []Case
	for _, v := range m.Variants {
		for _, seed := range m.Seeds {
			for _, f := range faults {
				for _, a := range scale {
					cases = append(cases, Case{
						Name: string(v) + "/seed" + strconv.FormatInt(seed, 10) + "/" + f.Name + "/" + a.Name,
						Config: core.Config{
							Variant:   v,
							Testbed:   m.Testbed,
							Seed:      seed,
							Faults:    f.Config.Faults,
							Autoscale: a.Config.Autoscale,
						},
						Workload: m.Workload(v, seed),
					})
				}
			}
		}
	}
	return cases
}

// Run replays every matrix cell on every engine as a subtest.
func (m Matrix) Run(t *testing.T, engines ...EngineFactory) {
	for _, c := range m.Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			Run(t, c, engines...)
		})
	}
}
