package experiments

import (
	"context"
	"fmt"
	"io"

	"libra/internal/faults"
	"libra/internal/metrics"
	"libra/internal/platform"
	"libra/internal/plot"
	"libra/internal/trace"
)

// Figs3Scale pins the sustained-overload geometry: the 50-node Jetstream
// cluster driven at twice its measured saturated service rate (~18
// RPM/node → 900 RPM knee, 1800 RPM offered) with node crashes injected,
// so the backlog stays thousands deep for the entire replay. Before the
// watermark-gated ready queue this operating point was unreachable —
// every completion rescanned the whole backlog and the replay cost grew
// quadratically in its depth.
var Figs3Scale = struct {
	Nodes, Schedulers, Invocations int
	RPM                            float64
}{Nodes: 50, Schedulers: 4, Invocations: 60_000, RPM: 1800}

// figs3Faults is the deterministic fault schedule of the overload
// replay: infrequent node crashes with slow repairs, and a small retry
// budget so sustained pressure produces measurable abandonment.
func figs3Faults() faults.Config {
	return faults.Config{CrashMTBF: 1800, MTTR: 120, MaxRetries: 2}
}

// BacklogPoint is one downsampled point of a platform's backlog series.
type BacklogPoint struct {
	T         float64
	Pending   int
	Goodput   float64 // completed / (completed + abandoned) so far; 1 before either
	Abandoned int
	Nodes     int // cluster membership at sample time (figs4)
}

// Figs3Platform aggregates one platform's sustained-overload replay.
type Figs3Platform struct {
	Name        string
	Completed   int
	Abandoned   int
	Goodput     float64
	PeakPending int
	Completion  float64
	Latency     metrics.Summary
	Backlog     []BacklogPoint
}

// Figs3Result is the four-platform overload comparison.
type Figs3Result struct {
	Nodes, Schedulers int
	RPM               float64
	Invocations       int
	Platforms         []Figs3Platform
}

// Figs3Overload replays the same Azure-shaped trace at 2× the cluster's
// saturation point on Default/Freyr/Libra/Libra-NS with crash injection,
// tracking the backlog, goodput and abandonment over time. Quick mode
// keeps the 2× operating point on a 10-node slice.
func Figs3Overload(ctx context.Context, o Options) (Renderer, error) {
	o.defaults()
	sc := Figs3Scale
	if o.Quick {
		// Same 36 RPM/node (2× saturation) on a 10-node slice.
		sc.Nodes, sc.Schedulers, sc.Invocations, sc.RPM = 10, 2, 2_000, 360
	}
	tb := platform.Jetstream(sc.Nodes, sc.Schedulers)
	prep := func(cfg platform.Config) platform.Config {
		cfg.Faults = figs3Faults()
		cfg.TrackBacklog = true
		// 5 s backlog/utilization sampling: the replay spends hours of
		// virtual time saturated, and per-second samples would dominate the
		// event count without changing any figure.
		cfg.SampleInterval = 5
		return cfg
	}
	mkSet := func(seed int64) trace.Set {
		return trace.JetstreamSet(sc.Invocations, sc.RPM, seed)
	}
	cells := []cell{
		{cfg: prep(platform.PresetDefault(tb, o.Seed)), mkSet: mkSet},
		{cfg: prep(platform.PresetFreyr(tb, o.Seed)), mkSet: mkSet},
		{cfg: prep(platform.PresetLibra(tb, o.Seed)), mkSet: mkSet},
		{cfg: prep(platform.PresetLibraNS(tb, o.Seed)), mkSet: mkSet},
	}
	runs, err := singleRuns(ctx, o, cells)
	if err != nil {
		return nil, err
	}
	res := &Figs3Result{Nodes: sc.Nodes, Schedulers: sc.Schedulers,
		RPM: sc.RPM, Invocations: sc.Invocations}
	for i, r := range runs {
		p := Figs3Platform{
			Name:        cells[i].cfg.Name,
			Completed:   len(r.Records),
			Abandoned:   r.Faults.Abandoned,
			Goodput:     r.Goodput(),
			PeakPending: r.PeakPending,
			Completion:  r.CompletionTime,
			Latency:     metrics.Summarize(r.Latencies()),
			Backlog:     downsampleBacklog(r.Backlog, 80),
		}
		res.Platforms = append(res.Platforms, p)
	}
	return res, nil
}

// downsampleBacklog thins the raw backlog series to at most max points
// (always keeping the last) so renders stay stable and compact however
// long the replay ran.
func downsampleBacklog(samples []platform.BacklogSample, max int) []BacklogPoint {
	if len(samples) == 0 {
		return nil
	}
	stride := (len(samples) + max - 1) / max
	if stride < 1 {
		stride = 1
	}
	var out []BacklogPoint
	for i := 0; i < len(samples); i += stride {
		out = append(out, backlogPoint(samples[i]))
	}
	if last := samples[len(samples)-1]; len(out) == 0 || out[len(out)-1].T != last.T {
		out = append(out, backlogPoint(last))
	}
	return out
}

func backlogPoint(s platform.BacklogSample) BacklogPoint {
	p := BacklogPoint{T: s.T, Pending: s.Pending, Abandoned: s.Abandoned, Goodput: 1, Nodes: s.Nodes}
	if done := s.Completed + s.Abandoned; done > 0 {
		p.Goodput = float64(s.Completed) / float64(done)
	}
	return p
}

// Render implements Renderer. Virtual time only, so the golden test pins
// it byte-for-byte.
func (r *Figs3Result) Render(w io.Writer) {
	t := tw(w)
	fmt.Fprintf(t, "figs3 — sustained overload: %d nodes, %d schedulers, %d invocations @ %.0f RPM (2× saturation), crash faults on\n",
		r.Nodes, r.Schedulers, r.Invocations, r.RPM)
	fmt.Fprintln(t, "platform\tcompleted\tabandoned\tgoodput\tpeak backlog\tp50 lat\tp99 lat\tcompletion")
	for _, p := range r.Platforms {
		fmt.Fprintf(t, "%s\t%d\t%d\t%.3f\t%d\t%.2fs\t%.2fs\t%.0fs\n",
			p.Name, p.Completed, p.Abandoned, p.Goodput, p.PeakPending,
			p.Latency.P50, p.Latency.P99, p.Completion)
	}
	t.Flush()

	c := plot.Line("figs3 — backlog depth under sustained 2× overload", "virtual time (s)", "pending invocations")
	for _, p := range r.Platforms {
		s := plot.Series{Name: p.Name}
		for _, b := range p.Backlog {
			s.X = append(s.X, b.T)
			s.Y = append(s.Y, float64(b.Pending))
		}
		c.Add(s)
	}
	c.Render(w)

	g := plot.Line("figs3 — goodput over time", "virtual time (s)", "completed / (completed+abandoned)")
	g.YMin, g.YMax = 0, 1
	for _, p := range r.Platforms {
		s := plot.Series{Name: p.Name}
		for _, b := range p.Backlog {
			s.X = append(s.X, b.T)
			s.Y = append(s.Y, b.Goodput)
		}
		g.Add(s)
	}
	g.Render(w)
}

// Figs2mScale pins the million-invocation cell: the figs2 operating
// point (83% of saturation, bounded queues) sustained for 1M
// invocations — a replay length that the pre-index platform could not
// touch. Only the two endpoint platforms run; the intermediate variants
// add nothing at this scale.
var Figs2mScale = struct {
	Nodes, Schedulers, Invocations int
	RPM                            float64
}{Nodes: 50, Schedulers: 4, Invocations: 1_000_000, RPM: 750}

// Figs2mResult is the million-invocation endurance comparison.
type Figs2mResult struct {
	Nodes, Schedulers int
	RPM               float64
	Platforms         []Figs2Platform
}

// Figs2mJetstream replays the million-invocation cell on Default and
// Libra. Quick mode trims to a 10-node 5k-invocation slice at the same
// per-node rate.
func Figs2mJetstream(ctx context.Context, o Options) (Renderer, error) {
	o.defaults()
	sc := Figs2mScale
	if o.Quick {
		sc.Nodes, sc.Schedulers, sc.Invocations, sc.RPM = 10, 2, 5_000, 150
	}
	tb := platform.Jetstream(sc.Nodes, sc.Schedulers)
	mkSet := func(seed int64) trace.Set {
		return trace.JetstreamSet(sc.Invocations, sc.RPM, seed)
	}
	cells := []cell{
		{cfg: platform.PresetDefault(tb, o.Seed), mkSet: mkSet},
		{cfg: platform.PresetLibra(tb, o.Seed), mkSet: mkSet},
	}
	runs, err := singleRuns(ctx, o, cells)
	if err != nil {
		return nil, err
	}
	res := &Figs2mResult{Nodes: sc.Nodes, Schedulers: sc.Schedulers, RPM: sc.RPM}
	for i, r := range runs {
		lats := r.Latencies()
		p := Figs2Platform{
			Name:        cells[i].cfg.Name,
			Invocations: len(r.Records),
			Latency:     metrics.Summarize(lats),
			Speedup:     metrics.Summarize(r.Speedups()),
			LatencyCDF:  metrics.CDF(lats, 40),
			Completion:  r.CompletionTime,
			ColdStarts:  r.ColdStarts,
			AvgCPUUtil:  r.AvgCPUUtil,
			AvgMemUtil:  r.AvgMemUtil,
			Harvested:   r.Harvested,
			Accelerated: r.Accelerated,
			Safeguarded: r.Safeguarded,
		}
		if p.Completion > 0 {
			p.Throughput = float64(p.Invocations) / p.Completion
		}
		res.Platforms = append(res.Platforms, p)
	}
	return res, nil
}

// Render implements Renderer.
func (r *Figs2mResult) Render(w io.Writer) {
	t := tw(w)
	fmt.Fprintf(t, "figs2m — million-invocation endurance replay: %d nodes, %d schedulers @ %.0f RPM\n",
		r.Nodes, r.Schedulers, r.RPM)
	fmt.Fprintln(t, "platform\tinvocations\tp50 lat\tp99 lat\tmean speedup\tcold starts\tavg CPU util\tcompletion\tthroughput")
	for _, p := range r.Platforms {
		fmt.Fprintf(t, "%s\t%d\t%.2fs\t%.2fs\t%+.3f\t%d\t%.1f%%\t%.0fs\t%.1f/s\n",
			p.Name, p.Invocations, p.Latency.P50, p.Latency.P99, p.Speedup.Mean,
			p.ColdStarts, p.AvgCPUUtil*100, p.Completion, p.Throughput)
	}
	t.Flush()

	c := plot.Line("figs2m — response latency CDF at endurance scale", "latency (s)", "fraction")
	c.YMin, c.YMax = 0, 1
	for _, p := range r.Platforms {
		c.Add(cdfSeries(p.Name, p.LatencyCDF))
	}
	c.Render(w)
}

func init() {
	register("figs3", "Sustained 2× overload: backlog, goodput and abandonment on the 50-node cluster", Figs3Overload)
	register("figs2m", "Million-invocation endurance replay: Default vs Libra", Figs2mJetstream)
}
