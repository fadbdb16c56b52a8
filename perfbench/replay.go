package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"libra/internal/core"
	"libra/internal/faults"
	"libra/internal/function"
	"libra/internal/metrics"
	"libra/internal/platform"
	"libra/internal/platform/invariants"
	"libra/internal/profiler"
	"libra/internal/sim"
	"libra/internal/trace"
)

// replaySpec is one serial sim replay workload: the Libra preset on the
// 50-node × 4-scheduler Jetstream geometry, replaying an Azure-shaped
// trace of n invocations at rpm.
type replaySpec struct {
	n      int
	rpm    float64
	faults faults.Config
}

// Endurance sits below the saturation knee (~900 RPM on 50 nodes):
// every arrival is pre-queued, so the event heap and profiler inference
// dominate and the drain pass idles.
var enduranceSpec = replaySpec{n: 300_000, rpm: 750}

// Overload is the figs3 geometry: 2× the knee with figs3's crash
// schedule, so placement is capacity-blocked, the ready-queue drain
// runs on every completion and the crash/retry path is exercised.
var overloadSpec = replaySpec{n: 60_000, rpm: 1800,
	faults: faults.Config{CrashMTBF: 1800, MTTR: 120, MaxRetries: 2}}

func runEndurance(cfg runConfig, res *result) error { return runReplay(enduranceSpec, cfg, res) }
func runOverload(cfg runConfig, res *result) error  { return runReplay(overloadSpec, cfg, res) }

func (s replaySpec) config(seed int64) core.Config {
	return core.Config{
		Variant:    core.VariantLibra,
		Testbed:    core.TestbedJetstream,
		Nodes:      50,
		Schedulers: 4,
		Faults:     s.faults,
		Seed:       seed,
	}
}

// traceSeed fixes the replayed trace to the one the figs2 and figs3
// goldens replay. The Azure-shaped generator draws which functions are
// hot from its seed, and that alone moves the offered load across the
// saturation knee (some seeds overload the 750 RPM endurance replay), so
// the benchmark seed varies the platform's own randomness instead:
// profiler training, and the crash schedule of the overload replay.
const traceSeed = 42

// minPasses is the fewest measured replays a run makes, however short
// its window: the reported rate is their median. setupReps is how many
// times the trace is generated for the set-up median.
const (
	minPasses = 3
	setupReps = 40
)

func runReplay(spec replaySpec, cfg runConfig, res *result) error {
	ccfg := spec.config(cfg.seed)
	// Generating the trace is the replay's set-up. It takes tens of
	// milliseconds, so it is repeated and the median reported.
	var set trace.Set
	setup, _ := timeSetup(setupReps, func() error { // generating cannot fail
		set = trace.JetstreamSet(spec.n, spec.rpm, traceSeed)
		return nil
	})
	if cfg.traced {
		return tracedReplay(ccfg, set, res)
	}

	var rates []float64
	var first *core.Report
	end := cfg.deadline(time.Now())
	for pass := 0; pass < minPasses || time.Now().Before(end); pass++ {
		runtime.GC() // the previous pass's garbage is not this pass's cost
		t0 := time.Now()
		rep, err := core.RunOn(sim.NewEngine(), ccfg, set)
		dt := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		rates = append(rates, float64(len(set.Invocations))/dt)
		fmt.Fprintf(os.Stderr, "replay: pass %d: %d invocations in %.3f s\n", pass, len(set.Invocations), dt)
		res.attempted += int64(len(set.Invocations))
		if first == nil {
			first = rep
		} else {
			res.check(reflect.DeepEqual(first, rep), "pass %d report differs from pass 0 on the same input", pass)
		}
	}
	r, err := checkReplay(ccfg, set, first, res)
	if err != nil {
		return err
	}
	lat := r.Latencies()
	res.set("throughput_per_s", median(rates))
	res.set("latency_p50_ms", first.LatencyP50*1e3)
	res.set("latency_tail_ms", quantile(lat, tailQuantile(len(lat), 0.999))*1e3)
	res.set("setup_s", setup)
	return nil
}

// checkReplay replays set once more directly on the platform API, so
// the nodes can be audited, and checks the outputs: every offered
// invocation completed or was abandoned, the conservation ledger closes,
// no loan is left outstanding, no node is over capacity, and the
// platform's result agrees with the core report rep of the same input.
// Failed checks count the offered invocations as failed.
func checkReplay(ccfg core.Config, set trace.Set, rep *core.Report, res *result) (*platform.Result, error) {
	pc, err := ccfg.PlatformConfig()
	if err != nil {
		return nil, err
	}
	p, err := platform.New(sim.NewEngine(), pc)
	if err != nil {
		return nil, err
	}
	r := p.Run(set)
	before := len(res.problems)
	offered := len(set.Invocations)
	res.check(len(r.Records)+r.Faults.Abandoned == offered,
		"completed %d + abandoned %d != offered %d", len(r.Records), r.Faults.Abandoned, offered)
	if err := invariants.Check(p.Nodes()); err != nil {
		res.check(false, "conservation ledger: %v", err)
	}
	var loans int64
	for _, n := range p.Nodes() {
		loans += n.CPUPool.OutstandingLoans() + n.MemPool.OutstandingLoans()
	}
	res.check(loans == 0 && r.LeakedLoans == 0, "%d loan units left outstanding", loans+r.LeakedLoans)
	res.check(r.CapacityViolations == 0, "%d capacity violations", r.CapacityViolations)
	res.check(len(r.Records) == rep.Invocations && r.Faults.Abandoned == rep.Abandoned &&
		metrics.Summarize(r.Latencies()).P50 == rep.LatencyP50,
		"platform result (%d done, %d abandoned) disagrees with the core report (%d, %d)",
		len(r.Records), r.Faults.Abandoned, rep.Invocations, rep.Abandoned)
	if len(res.problems) > before {
		res.failed += int64(offered)
	}
	return r, nil
}

// tracedReplay runs the workload once untraced and once through the
// timing clock with the classifying tracer, checks the two core reports
// are identical, and reports the per-layer metrics.
func tracedReplay(ccfg core.Config, set trace.Set, res *result) error {
	res.attempted = int64(len(set.Invocations))
	runtime.GC()
	t0 := time.Now()
	plain, err := core.RunOn(sim.NewEngine(), ccfg, set)
	plainS := time.Since(t0).Seconds()
	if err != nil {
		return err
	}

	runtime.GC()
	eng := sim.NewEngine()
	tc := newTimedClock(eng)
	tcfg := ccfg
	tcfg.Tracer = tc
	t0 = time.Now()
	traced, err := core.RunOn(tc, tcfg, set)
	tracedS := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	res.check(reflect.DeepEqual(plain, traced), "traced report differs from the untraced one:\n%+v\n%+v", plain, traced)

	r, err := checkReplay(ccfg, set, plain, res)
	if err != nil {
		return err
	}

	res.set("sim.events_fired", float64(eng.Fired()))
	res.set("sim.queue_peak", float64(eng.MaxQueueLen()))
	tc.report(res)
	res.set("platform.peak_pending", float64(r.PeakPending))
	res.set("obs.overhead_pct", (tracedS-plainS)/plainS*100)
	return profileReplay(ccfg, set, res)
}

// profileReplay replays the workload's arrivals through a profiler built
// with the preset's configuration, in isolation: Predict at arrival,
// then Observe of the invocation's actual demand. Calls that trigger the
// one-time offline training are timed apart from plain inference.
func profileReplay(ccfg core.Config, set trace.Set, res *result) error {
	pc, err := ccfg.PlatformConfig()
	if err != nil {
		return err
	}
	if pc.Estimator != platform.EstProfiler {
		return fmt.Errorf("preset %s does not use the profiler", pc.Name)
	}
	prof := profiler.New(profiler.Config{Mode: pc.ProfilerMode, Seed: pc.Seed, HistWindow: pc.HistWindow})
	var trainings, predicts int
	var trainS, predictS float64
	for _, inv := range set.Invocations {
		spec, ok := function.ByName(inv.App)
		if !ok {
			return fmt.Errorf("trace names unknown app %q", inv.App)
		}
		t0 := time.Now()
		_, trainCost := prof.Predict(spec, inv.Input)
		dt := time.Since(t0).Seconds()
		if trainCost > 0 {
			trainings++
			trainS += dt
		} else {
			predicts++
			predictS += dt
		}
		prof.Observe(spec, inv.Input, spec.Demand(inv.Input))
	}
	res.set("profiler.trainings", float64(trainings))
	res.set("profiler.train_s", trainS)
	res.set("profiler.predict_calls", float64(trainings+predicts))
	if predicts > 0 {
		res.set("profiler.predict_us_mean", predictS/float64(predicts)*1e6)
	}
	return nil
}
