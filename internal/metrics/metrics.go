// Package metrics provides the evaluation-side statistics of §8.1: the
// per-invocation speedup metric, response-latency summaries and CDFs,
// and periodic cluster-utilization sampling for the timeline figures.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"libra/internal/clock"
	"libra/internal/cluster"
	"libra/internal/histogram"
	"libra/internal/resources"
)

// Speedup is the paper's unified invocation metric (Eq. 1):
// (t_user − t_libra) / t_user. Positive means accelerated, negative means
// degraded, zero means preserved.
func Speedup(tUser, tLibra float64) float64 {
	if tUser <= 0 {
		return 0
	}
	return (tUser - tLibra) / tUser
}

// Summary holds order statistics of a sample.
type Summary struct {
	Count         int
	Mean          float64
	Min, Max      float64
	P50, P95, P99 float64
	P01           float64
	Sum           float64
	StdDev        float64
}

// Summarize computes a Summary. An empty input yields the zero Summary.
func Summarize(data []float64) Summary {
	if len(data) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(data)}
	qs := histogram.Quantiles(data, 0.01, 0.5, 0.95, 0.99)
	s.P01, s.P50, s.P95, s.P99 = qs[0], qs[1], qs[2], qs[3]
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	for _, v := range data {
		s.Sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = s.Sum / float64(s.Count)
	for _, v := range data {
		d := v - s.Mean
		s.StdDev += d * d
	}
	s.StdDev = math.Sqrt(s.StdDev / float64(s.Count))
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p99=%.3f min=%.3f max=%.3f",
		s.Count, s.Mean, s.P50, s.P99, s.Min, s.Max)
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value float64
	Frac  float64
}

// CDF returns the empirical CDF of data downsampled to at most points
// entries (the last point is always (max, 1)).
func CDF(data []float64, points int) []CDFPoint {
	if len(data) == 0 || points <= 0 {
		return nil
	}
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	if points > len(s) {
		points = len(s)
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		idx := (i + 1) * len(s) / points
		out = append(out, CDFPoint{Value: s[idx-1], Frac: float64(idx) / float64(len(s))})
	}
	return out
}

// TimePoint is one sample of a time series.
type TimePoint struct {
	T float64
	V float64
}

// UtilizationSample is one periodic observation of the cluster.
type UtilizationSample struct {
	T        float64
	CPUUsed  float64 // cores actually busy
	MemUsed  float64 // MB actually busy
	CPUAlloc float64 // cores allocated (incl. borrowed)
	MemAlloc float64 // MB allocated
	CPUFrac  float64 // CPUUsed / capacity
	MemFrac  float64 // MemUsed / capacity
}

// UtilizationTracker samples the usage of a node set on a fixed virtual-
// time interval — the data behind the Fig 7 timelines and the Fig 11
// average/peak utilization bars.
type UtilizationTracker struct {
	clk     clock.Clock
	nodes   []*cluster.Node
	samples []UtilizationSample
	capCPU  float64
	capMem  float64
	ticker  *clock.Ticker
}

// NewUtilizationTracker starts sampling every interval seconds until
// Stop is called. Sampling keeps the event queue non-empty, so callers
// must Stop it (or use RunUntil) to let the simulation drain.
func NewUtilizationTracker(clk clock.Clock, nodes []*cluster.Node, interval float64) *UtilizationTracker {
	// Long replays collect hours of virtual time at 1-sample-per-second;
	// seed the buffer so the early growth reallocations never show up in
	// the per-run allocation profile.
	t := &UtilizationTracker{clk: clk, nodes: nodes,
		samples: make([]UtilizationSample, 0, 1024)}
	for _, n := range nodes {
		c := n.Capacity()
		t.capCPU += c.CPU.Cores()
		t.capMem += float64(c.Mem)
	}
	t.ticker = clock.Every(clk, interval, t.sample)
	return t
}

// sample sums the nodes' integer usage and allocation vectors, then
// converts the totals to floats once, so a sample does not depend on
// the order the nodes are visited in.
func (t *UtilizationTracker) sample() {
	var u, a resources.Vector
	for _, n := range t.nodes {
		u = u.Add(n.UsageNow())
		a = a.Add(n.AllocatedNow())
	}
	s := UtilizationSample{
		T:        t.clk.Now(),
		CPUUsed:  u.CPU.Cores(),
		MemUsed:  float64(u.Mem),
		CPUAlloc: a.CPU.Cores(),
		MemAlloc: float64(a.Mem),
	}
	// A tracker over an empty (or zero-capacity) node set reports zero
	// fractions rather than dividing to NaN.
	if t.capCPU > 0 {
		s.CPUFrac = s.CPUUsed / t.capCPU
	}
	if t.capMem > 0 {
		s.MemFrac = s.MemUsed / t.capMem
	}
	t.samples = append(t.samples, s)
}

// Extend adds a node (joined by scale-up) to the sampled set and counts
// its capacity into the denominator. Fixed-fleet runs never call this,
// so their sampling is byte-identical to the pre-elastic tracker.
func (t *UtilizationTracker) Extend(n *cluster.Node) {
	for _, have := range t.nodes {
		if have == n {
			return
		}
	}
	t.nodes = append(t.nodes, n)
	c := n.Capacity()
	t.capCPU += c.CPU.Cores()
	t.capMem += float64(c.Mem)
}

// SetCapacity replaces the utilization denominator — the platform calls
// it when membership changes (a retired node's capacity has left the
// cluster, a revived one's has come back), so fractions track the
// *current* fleet rather than the boot-time one.
func (t *UtilizationTracker) SetCapacity(cpuCores, memMB float64) {
	t.capCPU = cpuCores
	t.capMem = memMB
}

// Stop halts sampling and cancels the armed sampling event, so a stopped
// tracker leaves nothing in the engine's queue and the simulation drains
// without stepping one more empty interval.
func (t *UtilizationTracker) Stop() { t.ticker.Stop() }

// Samples returns the collected observations.
func (t *UtilizationTracker) Samples() []UtilizationSample { return t.samples }

// AveragePeak reduces the samples over [0, horizon] (0 means all) to
// average and peak CPU/memory utilization fractions.
func (t *UtilizationTracker) AveragePeak(horizon float64) (avgCPU, peakCPU, avgMem, peakMem float64) {
	n := 0
	for _, s := range t.samples {
		if horizon > 0 && s.T > horizon {
			break
		}
		n++
		avgCPU += s.CPUFrac
		avgMem += s.MemFrac
		if s.CPUFrac > peakCPU {
			peakCPU = s.CPUFrac
		}
		if s.MemFrac > peakMem {
			peakMem = s.MemFrac
		}
	}
	if n > 0 {
		avgCPU /= float64(n)
		avgMem /= float64(n)
	}
	return avgCPU, peakCPU, avgMem, peakMem
}
