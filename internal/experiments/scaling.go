package experiments

import (
	"context"
	"fmt"
	"io"

	"libra/internal/platform"
	"libra/internal/plot"
	"libra/internal/trace"
)

// ScalePoint is one measurement of the Fig 12 scalability study.
type ScalePoint struct {
	Nodes       int
	Schedulers  int
	Invocations int
	Completion  float64
	SchedDelay  float64 // mean decision compute per invocation (s)
}

// Fig12Result carries strong scaling, weak scaling and the scheduling
// overhead sweep of §8.5 on the Jetstream-like cluster.
type Fig12Result struct {
	Strong []ScalePoint // fixed 1000 concurrent invocations
	Weak   []ScalePoint // 20 invocations per node
	Delay  []ScalePoint // 50 nodes, 4 schedulers, 200..1000 invocations
}

// Fig12Scalability regenerates Fig 12: the decentralized sharding
// schedulers on the 50-node Jetstream cluster, with Libra's harvesting
// and timeliness-aware scheduling enabled.
func Fig12Scalability(ctx context.Context, o Options) (Renderer, error) {
	o.defaults()
	nodesSweep := []int{10, 20, 30, 40, 50}
	schedSweep := []int{1, 2, 4}
	if o.Quick {
		nodesSweep = []int{10, 50}
		schedSweep = []int{1, 4}
	}
	res := &Fig12Result{}

	strongN := 1000
	if o.Quick {
		strongN = 300
	}
	// The three sweeps flatten into one unit list: every (geometry,
	// invocation-count) point is an independent single run at the base
	// seed.
	type point struct {
		nodes, scheds, invs int
		delay               bool // Fig 12c: record mean decision overhead
	}
	var pts []point
	for _, nodes := range nodesSweep {
		for _, k := range schedSweep {
			pts = append(pts, point{nodes, k, strongN, false})
		}
	}
	weakStart := len(pts)
	for _, nodes := range nodesSweep {
		for _, k := range schedSweep {
			pts = append(pts, point{nodes, k, 20 * nodes, false})
		}
	}
	delayStart := len(pts)
	invSweep := []int{200, 400, 600, 800, 1000}
	if o.Quick {
		invSweep = []int{200, 1000}
	}
	for _, n := range invSweep {
		pts = append(pts, point{50, 4, n, true})
	}

	scaled, err := fanOut(ctx, o, len(pts), func(i int) ScalePoint {
		pt := pts[i]
		cfg := platform.PresetLibra(platform.Jetstream(pt.nodes, pt.scheds), o.Seed)
		r := runPlatform(cfg, trace.ConcurrentBurst(pt.invs, o.Seed))
		sp := ScalePoint{
			Nodes: pt.nodes, Schedulers: pt.scheds, Invocations: pt.invs,
			Completion: r.CompletionTime,
		}
		if pt.delay {
			var mean float64
			for _, d := range r.SchedOverheads {
				mean += d
			}
			if len(r.SchedOverheads) > 0 {
				mean /= float64(len(r.SchedOverheads))
			}
			sp.SchedDelay = mean
		}
		return sp
	})
	if err != nil {
		return nil, err
	}
	res.Strong = scaled[:weakStart]
	res.Weak = scaled[weakStart:delayStart]
	res.Delay = scaled[delayStart:]
	return res, nil
}

// Render implements Renderer.
func (r *Fig12Result) Render(w io.Writer) {
	t := tw(w)
	fmt.Fprintln(t, "Fig 12a — strong scaling: completion time (s), 1000 concurrent invocations")
	fmt.Fprintln(t, "nodes\t1 sched\t2 sched\t4 sched")
	renderScaleGrid(t, r.Strong)
	fmt.Fprintln(t, "Fig 12b — weak scaling: completion time (s), 20 invocations per node")
	fmt.Fprintln(t, "nodes\t1 sched\t2 sched\t4 sched")
	renderScaleGrid(t, r.Weak)
	fmt.Fprintln(t, "Fig 12c — scheduling overhead (ms), 50 nodes, 4 schedulers")
	fmt.Fprintln(t, "invocations\tmean decision overhead")
	for _, p := range r.Delay {
		fmt.Fprintf(t, "%d\t%.3f ms\n", p.Invocations, p.SchedDelay*1000)
	}
	t.Flush()
	chart := plot.Line("Fig 12a — strong scaling", "# of nodes", "completion (s)")
	for _, k := range []int{1, 2, 4} {
		s := plot.Series{Name: fmt.Sprintf("%d sched", k)}
		for _, p := range r.Strong {
			if p.Schedulers == k {
				s.X = append(s.X, float64(p.Nodes))
				s.Y = append(s.Y, p.Completion)
			}
		}
		chart.Add(s)
	}
	chart.Render(w)
}

func renderScaleGrid(w io.Writer, points []ScalePoint) {
	byNodes := map[int]map[int]float64{}
	var nodes []int
	for _, p := range points {
		if byNodes[p.Nodes] == nil {
			byNodes[p.Nodes] = map[int]float64{}
			nodes = append(nodes, p.Nodes)
		}
		byNodes[p.Nodes][p.Schedulers] = p.Completion
	}
	for _, n := range nodes {
		fmt.Fprintf(w, "%d", n)
		for _, k := range []int{1, 2, 4} {
			if v, ok := byNodes[n][k]; ok {
				fmt.Fprintf(w, "\t%.1f", v)
			} else {
				fmt.Fprint(w, "\t-")
			}
		}
		fmt.Fprintln(w)
	}
}

func init() {
	register("fig12", "Scalability of decentralized sharding schedulers", Fig12Scalability)
}
