package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"libra/internal/function"
	"libra/internal/platform"
	"libra/internal/profiler"
	"libra/internal/trace"
)

// Fig15Row is one function's mean per-phase latency (seconds).
type Fig15Row struct {
	App       string
	Frontend  float64
	Profiler  float64
	Scheduler float64
	Pool      float64
	Init      float64
	Exec      float64
}

// Total returns the summed phase latency.
func (r Fig15Row) Total() float64 {
	return r.Frontend + r.Profiler + r.Scheduler + r.Pool + r.Init + r.Exec
}

// Fig15Result is the per-function latency breakdown (Fig 15): Libra's
// components (frontend, profiler, scheduler, harvest pool) are negligible
// against container init and code execution.
type Fig15Result struct{ Rows []Fig15Row }

// Fig15Breakdown regenerates Fig 15 in the multi-node setting.
func Fig15Breakdown(ctx context.Context, o Options) (Renderer, error) {
	o.defaults()
	cfg := platform.PresetLibra(platform.MultiNode(), o.Seed)
	mk := func(seed int64) trace.Set {
		return trace.Generate("breakdown", function.Apps(), 200, 60, seed)
	}
	results, err := sweepResults(ctx, o, []cell{{cfg: cfg, mkSet: mk}})
	if err != nil {
		return nil, err
	}
	agg := map[string]*Fig15Row{}
	counts := map[string]int{}
	for _, r := range results[0] {
		for app, bd := range r.Breakdown {
			row, ok := agg[app]
			if !ok {
				row = &Fig15Row{App: app}
				agg[app] = row
			}
			row.Frontend += bd.Frontend
			row.Profiler += bd.Profiler
			row.Scheduler += bd.Scheduler
			row.Pool += bd.Pool
			row.Init += bd.Init
			row.Exec += bd.Exec
			counts[app] += bd.Count
		}
	}
	res := &Fig15Result{}
	for app, row := range agg {
		n := float64(counts[app])
		res.Rows = append(res.Rows, Fig15Row{
			App:      app,
			Frontend: row.Frontend / n, Profiler: row.Profiler / n,
			Scheduler: row.Scheduler / n, Pool: row.Pool / n,
			Init: row.Init / n, Exec: row.Exec / n,
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].App < res.Rows[j].App })
	return res, nil
}

// Render implements Renderer.
func (r *Fig15Result) Render(w io.Writer) {
	t := tw(w)
	fmt.Fprintln(t, "Fig 15 — mean latency breakdown per function (seconds)")
	fmt.Fprintln(t, "func\tfrontend\tprofiler\tscheduler\tpool\tcontainer init\tcode exec\ttotal")
	for _, row := range r.Rows {
		fmt.Fprintf(t, "%s\t%.4f\t%.4f\t%.4f\t%.4f\t%.2f\t%.2f\t%.2f\n",
			row.App, row.Frontend, row.Profiler, row.Scheduler, row.Pool,
			row.Init, row.Exec, row.Total())
	}
	t.Flush()
}

// OverheadResult reports component overheads à la §8.10, derived from the
// virtual-time cost model and pool activity of a multi-node run.
type OverheadResult struct {
	Invocations      int
	Trainings        int
	TrainingSeconds  float64
	ProfilerSeconds  float64
	SchedulerSeconds float64
	PoolOps          int64
	PoolSeconds      float64
	HarvestedCoreSec float64
}

// OverheadReport regenerates the §8.10 component-overhead measurements.
func OverheadReport(ctx context.Context, o Options) (Renderer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o.defaults()
	cfg := platform.PresetLibra(platform.MultiNode(), o.Seed)
	p := mustPlatform(cfg)
	r := p.Run(trace.Generate("overheads", function.Apps(), 300, 120, o.Seed))
	res := &OverheadResult{Invocations: len(r.Records), Trainings: r.Trainings}
	res.TrainingSeconds = float64(r.Trainings) * profiler.OfflineTrainOverhead
	for _, bd := range r.Breakdown {
		res.ProfilerSeconds += bd.Profiler
		res.PoolSeconds += bd.Pool
	}
	res.ProfilerSeconds -= res.TrainingSeconds
	for _, d := range r.SchedOverheads {
		res.SchedulerSeconds += d
	}
	for _, n := range p.Nodes() {
		st := n.CPUPool.Stats()
		res.PoolOps += st.Put + st.Got
		res.HarvestedCoreSec += float64(st.Put) / 1000
	}
	return res, nil
}

// Render implements Renderer.
func (r *OverheadResult) Render(w io.Writer) {
	fmt.Fprintln(w, "§8.10 — component overheads (virtual-time cost model)")
	fmt.Fprintf(w, "invocations: %d\n", r.Invocations)
	fmt.Fprintf(w, "profiler inference total: %.3fs (%.2f ms/invocation); one-time training: %d x %.0f ms\n",
		r.ProfilerSeconds, r.ProfilerSeconds/float64(r.Invocations)*1000,
		r.Trainings, r.TrainingSeconds/float64(max(1, r.Trainings))*1000)
	fmt.Fprintf(w, "scheduler decisions total: %.3fs (%.2f ms/invocation)\n",
		r.SchedulerSeconds, r.SchedulerSeconds/float64(r.Invocations)*1000)
	fmt.Fprintf(w, "harvest pool ops: %d (%.3fs total)\n", r.PoolOps, r.PoolSeconds)
	fmt.Fprintf(w, "harvested volume: %.0f core-units\n", r.HarvestedCoreSec)
}

func init() {
	register("fig15", "Latency breakdown per function", Fig15Breakdown)
	register("overheads", "Component overheads", OverheadReport)
}
