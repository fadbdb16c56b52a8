package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"libra/internal/cluster"
	"libra/internal/function"
	"libra/internal/harvest"
	"libra/internal/resources"
	"libra/internal/sim"
)

func TestSpeedup(t *testing.T) {
	if s := Speedup(10, 5); s != 0.5 {
		t.Fatalf("Speedup(10,5) = %g", s)
	}
	if s := Speedup(10, 20); s != -1 {
		t.Fatalf("Speedup(10,20) = %g", s)
	}
	if s := Speedup(10, 10); s != 0 {
		t.Fatalf("Speedup(10,10) = %g", s)
	}
	if s := Speedup(0, 5); s != 0 {
		t.Fatalf("Speedup(0,5) = %g, want 0 (guard)", s)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("Summary = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("StdDev = %g", s.StdDev)
	}
	if z := Summarize(nil); z.Count != 0 {
		t.Fatalf("empty summary = %+v", z)
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2, 4}, 4)
	if len(pts) != 4 {
		t.Fatalf("CDF has %d points", len(pts))
	}
	last := pts[len(pts)-1]
	if last.Value != 4 || last.Frac != 1 {
		t.Fatalf("last CDF point = %+v, want (4, 1)", last)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value || pts[i].Frac <= pts[i-1].Frac {
			t.Fatalf("CDF not monotone: %+v", pts)
		}
	}
	if CDF(nil, 5) != nil || CDF([]float64{1}, 0) != nil {
		t.Fatal("degenerate CDF should be nil")
	}
	// Downsampling keeps the terminal point.
	pts = CDF([]float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10}, 3)
	if len(pts) != 3 || pts[2].Value != 10 || pts[2].Frac != 1 {
		t.Fatalf("downsampled CDF = %+v", pts)
	}
}

func TestPropertyCDFMonotone(t *testing.T) {
	f := func(data []float64, n uint8) bool {
		clean := data[:0]
		for _, v := range data {
			if !math.IsNaN(v) {
				clean = append(clean, v)
			}
		}
		pts := CDF(clean, int(n%20)+1)
		for i := 1; i < len(pts); i++ {
			if pts[i].Value < pts[i-1].Value || pts[i].Frac < pts[i-1].Frac {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationTracker(t *testing.T) {
	eng := sim.NewEngine()
	node := cluster.NewNode(eng, 0, resources.Vector{CPU: resources.Cores(8), Mem: 8192})
	dh, _ := function.ByName("DH")
	inv := &cluster.Invocation{
		ID: harvest.ID(1), App: dh, UserAlloc: dh.UserAlloc,
		Actual: function.Demand{CPUPeak: resources.Cores(4), MemPeak: 512, Duration: 10},
	}
	tr := NewUtilizationTracker(eng, []*cluster.Node{node}, 1)
	node.Start(inv, cluster.StartOptions{OwnAlloc: inv.UserAlloc})
	eng.RunUntil(12)
	tr.Stop()
	eng.Run()

	samples := tr.Samples()
	if len(samples) < 10 {
		t.Fatalf("only %d samples", len(samples))
	}
	// During execution (after ~0.35s cold start) 4 of 8 cores are busy.
	mid := samples[5]
	if math.Abs(mid.CPUFrac-0.5) > 0.01 {
		t.Fatalf("mid-run CPU fraction = %g, want 0.5", mid.CPUFrac)
	}
	if math.Abs(mid.MemFrac-512.0/8192) > 0.01 {
		t.Fatalf("mid-run mem fraction = %g, want %g", mid.MemFrac, 512.0/8192)
	}
	// After completion usage returns to zero.
	lastSample := samples[len(samples)-1]
	if lastSample.T > 10.5 && lastSample.CPUFrac != 0 {
		t.Fatalf("usage after completion = %g", lastSample.CPUFrac)
	}

	avgCPU, peakCPU, _, peakMem := tr.AveragePeak(0)
	if peakCPU < 0.49 || peakCPU > 0.51 {
		t.Fatalf("peak CPU = %g, want ≈0.5", peakCPU)
	}
	if avgCPU <= 0 || avgCPU > peakCPU {
		t.Fatalf("avg CPU = %g, peak %g", avgCPU, peakCPU)
	}
	if peakMem <= 0 {
		t.Fatal("peak mem not observed")
	}
}

// Regression: Stop must cancel the armed sampling event, not just flag
// the tracker stopped. The old flag-only Stop left the tick queued, so a
// drained simulation still stepped one empty interval past the last real
// event — the same lifecycle bug clock.Ticker.Stop fixes.
func TestUtilizationTrackerStopCancelsPending(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewUtilizationTracker(eng, nil, 1)
	if eng.Pending() == 0 {
		t.Fatal("tracker armed no sampling event")
	}
	tr.Stop()
	if p := eng.Pending(); p != 0 {
		t.Fatalf("Pending() = %d after Stop, want 0 (stale sampling event left queued)", p)
	}
	eng.Run()
	if now := eng.Now(); now != 0 {
		t.Fatalf("engine advanced to %gs draining a stopped tracker", now)
	}
	// Stop is idempotent.
	tr.Stop()
}

// Regression: sampling an empty node set (zero capacity) must report
// zero utilization fractions, not divide to NaN and poison every
// downstream average.
func TestUtilizationTrackerEmptyNodeSet(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewUtilizationTracker(eng, nil, 1)
	eng.RunUntil(3)
	tr.Stop()
	samples := tr.Samples()
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	for _, s := range samples {
		if math.IsNaN(s.CPUFrac) || math.IsNaN(s.MemFrac) {
			t.Fatalf("NaN utilization fraction at t=%g: %+v", s.T, s)
		}
		if s.CPUFrac != 0 || s.MemFrac != 0 {
			t.Fatalf("non-zero fraction with zero capacity at t=%g: %+v", s.T, s)
		}
	}
	avgCPU, peakCPU, avgMem, peakMem := tr.AveragePeak(0)
	for name, v := range map[string]float64{"avgCPU": avgCPU, "peakCPU": peakCPU, "avgMem": avgMem, "peakMem": peakMem} {
		if math.IsNaN(v) || v != 0 {
			t.Fatalf("%s = %g with zero capacity, want 0", name, v)
		}
	}
}

func TestAveragePeakHorizon(t *testing.T) {
	eng := sim.NewEngine()
	node := cluster.NewNode(eng, 0, resources.Vector{CPU: resources.Cores(8), Mem: 8192})
	dh, _ := function.ByName("DH")
	inv := &cluster.Invocation{
		ID: harvest.ID(1), App: dh, UserAlloc: dh.UserAlloc,
		Actual: function.Demand{CPUPeak: resources.Cores(8), MemPeak: 1024, Duration: 5},
	}
	tr := NewUtilizationTracker(eng, []*cluster.Node{node}, 1)
	node.Start(inv, cluster.StartOptions{OwnAlloc: inv.UserAlloc})
	eng.RunUntil(20)
	tr.Stop()
	eng.Run()
	// Full horizon includes 15 idle seconds; a 5s horizon does not.
	avgFull, _, _, _ := tr.AveragePeak(0)
	avgShort, _, _, _ := tr.AveragePeak(5)
	if !(avgShort > avgFull) {
		t.Fatalf("short-horizon average %g not above full %g", avgShort, avgFull)
	}
}
