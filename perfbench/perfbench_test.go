package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"libra/internal/obs"
	"libra/internal/sim"
)

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.25, 1.75},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9, 10},
	}
	for _, c := range cases {
		if got := quantile(append([]float64(nil), c.xs...), c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 || xs[0] != 3 {
		t.Errorf("median(%v) = %v and must not reorder its input", xs, got)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{100_000, 0.999},
		{10_000, 0.999},
		{9_999, 0.99},
		{1_000, 0.99},
		{999, 0.5},
		{0, 0.5},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n, 0.99, 0.999); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSaturationRateFindsTheCeiling(t *testing.T) {
	for _, ceiling := range []float64{900, 6000, 15_000, 47_000} {
		var probed []float64
		got := saturationRate(6000, 1.5, 1.04, 30, func(r float64) bool {
			probed = append(probed, r)
			return r <= ceiling
		})
		if math.Abs(got-ceiling)/ceiling > 0.04 {
			t.Errorf("ceiling %v: estimated %v after probes %v", ceiling, got, probed)
		}
		if len(probed) != 30 {
			t.Errorf("ceiling %v: made %d probes, want 30", ceiling, len(probed))
		}
	}
	// A noisy verdict that passes with probability falling through one
	// half at 10k: the estimate lands near 10k though single windows lie.
	rng := rand.New(rand.NewSource(1))
	got := saturationRate(6000, 1.5, 1.04, 200, func(r float64) bool {
		return rng.Float64() < 1/(1+math.Pow(r/10_000, 20))
	})
	if math.Abs(got-10_000)/10_000 > 0.04 {
		t.Errorf("noisy verdict: estimated %v, want about 10000", got)
	}
	if got := saturationRate(6000, 1.5, 1.04, 5, func(float64) bool { return true }); got != 6000*1.5*1.5*1.5*1.5 {
		t.Errorf("always passing: got %v, want the last (5th) rate probed", got)
	}
	if got := saturationRate(6000, 1.5, 1.04, 6, func(float64) bool { return false }); got != 0 {
		t.Errorf("never passing: got %v, want 0", got)
	}
}

// A scripted clock run: each callback emits a fixed event sequence, and
// the classes the timed clock assigns are checked by count.
func TestTimedClockClassesCallbacksByFirstEvent(t *testing.T) {
	tc := newTimedClock(sim.NewEngine())
	emit := func(kinds ...obs.Kind) func() {
		return func() {
			for _, k := range kinds {
				tc.Record(obs.Event{T: tc.Now(), Inv: 7, Kind: k})
			}
		}
	}
	tc.At(1, emit(obs.KindArrival, obs.KindQueued))     // arrival
	tc.At(2, emit(obs.KindExecStart, obs.KindComplete)) // other: exec start comes first
	tc.At(3, func() {                                   // tick: emits nothing…
		tc.Schedule(0, emit()) // …and so does its zero-delay continuation
	})
	tc.At(4, func() { // complete, whose zero-delay tail dispatches from the drain
		emit(obs.KindComplete)()
		tc.Schedule(0, emit(obs.KindDecision, obs.KindColdStart))
		tc.Schedule(1, emit(obs.KindDecision)) // later, so classed by its own event
	})
	tc.Run()

	want := [numClasses]int64{classArrival: 1, classComplete: 2, classTick: 2, classOther: 2}
	if tc.cbCount != want {
		t.Errorf("callbacks per class = %v, want %v", tc.cbCount, want)
	}
	if tc.drainDispatches != 1 {
		t.Errorf("drain dispatches = %d, want 1 (the decision in the completion tail)", tc.drainDispatches)
	}
	res := newResult()
	tc.report(res)
	if got := res.values["scheduler.decision_s"]; math.Abs(got-(4-1)/2.0) > 1e-12 {
		// One queued at t=1 decided at t=4; the t=5 decision has no queued event.
		t.Errorf("mean queued→decision = %v, want %v", got, 1.5)
	}
	if res.values["sim.dispatch_self_s"] < 0 {
		t.Errorf("negative engine self time %v", res.values["sim.dispatch_self_s"])
	}
}

func TestAttributeHopsMapsDriverTimeToWall(t *testing.T) {
	epoch := time.Unix(1000, 0)
	start := epoch.Add(2 * time.Second) // the generator started 2 s into driver time
	ms := int64(time.Millisecond)
	shots := []shot{
		{due: 100 * ms, send: 101 * ms, done: 102 * ms, id: 11, ok: true},
		{due: 200 * ms, send: 200 * ms, done: 205 * ms, id: 12, ok: true},
		{due: 300 * ms, send: 300 * ms, done: 301 * ms, ok: false}, // never accepted
	}
	events := []obs.Event{
		{T: 2.1013, Inv: 11, Kind: obs.KindArrival},
		{T: 2.1020, Inv: 11, Kind: obs.KindDecision},
		{T: 2.1030, Inv: 11, Kind: obs.KindExecStart},
		{T: 2.1530, Inv: 11, Kind: obs.KindComplete},
		{T: 2.2040, Inv: 12, Kind: obs.KindArrival}, // 12 never completes
		{T: 0.5, Inv: 99, Kind: obs.KindArrival},    // warm-up traffic is not the window's
	}
	h := attributeHops(shots, start, epoch, events)
	if h.matched != 1 {
		t.Fatalf("matched %d requests, want 1", h.matched)
	}
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("%s = %v ms, want %v ms", name, got, want)
		}
	}
	near("ingress", h.ingress[0], 0.3)
	near("sched", h.sched[0], 0.7)
	near("exec", h.exec[0], 50)
	near("accept of the first request", h.accept[0], 1)
	near("lateness of the first request", h.late[0], 1)
	if h.counts.events != 5 {
		t.Errorf("counted %d window events, want 5", h.counts.events)
	}
}

func TestEncodeResultNamesEveryMetric(t *testing.T) {
	res := newResult()
	res.attempted = 3
	if _, err := encodeResult(res, endToEnd); err == nil {
		t.Error("an unmeasured end-to-end metric must be an error")
	}
	line, err := encodeResult(res, perLayer)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   bool
		Attempted int64
		Metrics   map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted != 3 || len(out.Metrics) != len(perLayer) {
		t.Errorf("got %+v", out)
	}
	res.set(perLayer[0].name, math.NaN())
	if _, err := encodeResult(res, perLayer); err == nil {
		t.Error("a non-finite value must be an error")
	}
}

// BENCHMARK.json declares what the command prints; it must list the
// same workloads and the same metrics with the same units.
func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %q, command has %q", got, workloadNames())
	}
	same := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range declared {
			if d.Name != defs[i].name || d.Unit != defs[i].unit {
				t.Errorf("%s #%d: BENCHMARK.json has %s [%s], the command %s [%s]",
					kind, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
