package simtest_test

import (
	"math/rand"
	"testing"

	"libra/internal/cluster"
	"libra/internal/core"
	"libra/internal/faults"
	"libra/internal/function"
	"libra/internal/obs"
	"libra/internal/platform"
	"libra/internal/simtest"
	"libra/internal/trace"
)

// engines is the driver line-up the chaos cases must agree across: the
// serial sim engine and the wall driver under mocked time.
func engines() []simtest.EngineFactory {
	return []simtest.EngineFactory{simtest.Serial(), simtest.WallManual()}
}

// TestCrashOOMMidFlightReplays pins the hardest interleaving the
// fault path has: a node crash or OOM kill landing while that node has
// executions in flight, so the abort runs mid-execution and its
// cross-node tail (failure hook, retry re-entry, shard release) follows
// as a zero-delay event. The scenario is tuned so both fault kinds
// genuinely fire mid-flight: the memory-heavy MultiSet workload keeps
// every node busy at the crash instants, a 25% straggler fraction
// stretches executions across them, and the variant is the
// unsafeguarded Freyr — Libra's safeguard exists to keep the OOM column
// at zero, so only an unsafeguarded harvester can land real OOM kills.
// (A much shorter MTBF would paradoxically erase the OOM kills: crashes
// abort executions before their memory peaks are ever reached.) The
// reference run must actually observe both fault kinds, or the case
// pins nothing.
func TestCrashOOMMidFlightReplays(t *testing.T) {
	chaos := faults.Config{
		CrashMTBF:         40,
		MTTR:              5,
		OOMKill:           true,
		StragglerFraction: 0.25,
	}
	results := simtest.Run(t, simtest.Case{
		Name: "crash-oom-mid-flight",
		Config: core.Config{
			Variant: core.VariantFreyr, Testbed: core.TestbedMultiNode,
			Seed: 19, Faults: chaos,
		},
		Workload: trace.MultiSet(240, 19),
	}, engines()...)
	rep := results[0].Report
	if rep.Crashes == 0 {
		t.Fatal("schedule injected no crashes; the mid-flight case exercises nothing")
	}
	if rep.OOMKills == 0 {
		t.Fatal("schedule injected no OOM kills; the mid-flight case exercises nothing")
	}
}

// TestAutoscaleRetireReviveReplays pins elastic membership into the
// sim/live parity guarantee: a burst scales the group up, the following
// lull drains and retires the joiners, and a second burst revives
// members onto a fleet whose size differs from the one they first
// joined. The replay must stay byte-identical across both drivers
// while the fleet reshapes.
func TestAutoscaleRetireReviveReplays(t *testing.T) {
	scale := platform.AutoscaleConfig{
		Group:    cluster.NodeGroup{Name: "remap", Max: 6},
		Cooldown: 2,
	}
	// Burst → lull → smaller burst → lull: the first burst grows the
	// group, the lull retires it, the second burst revives part of it.
	set := trace.ConcurrentBurst(250, 23)
	rng := rand.New(rand.NewSource(23))
	apps := function.Apps()
	id := int64(250)
	add := func(at float64) {
		app := apps[int(id)%len(apps)]
		set.Invocations = append(set.Invocations, trace.Invocation{
			ID: id, App: app.Name, Arrival: at, Input: app.SampleInput(rng),
		})
		id++
	}
	for at := 120.0; at <= 420; at += 60 {
		add(at)
	}
	for i := 0; i < 120; i++ {
		add(480)
	}
	for at := 540.0; at <= 840; at += 60 {
		add(at)
	}

	results := simtest.Run(t, simtest.Case{
		Name: "retire-revive",
		Config: core.Config{
			Variant: core.VariantLibra, Testbed: core.TestbedMultiNode,
			Seed: 23, Autoscale: scale,
		},
		Workload: set,
	}, engines()...)

	rep := results[0].Report
	if rep.ScaleUps < 2 || rep.ScaleDowns < 1 {
		t.Fatalf("scenario exercised no retire-then-revive (ups=%d downs=%d)",
			rep.ScaleUps, rep.ScaleDowns)
	}
	// The counters alone can't order the events; replay the trace to
	// prove a revival happened — some node joined *after* a retirement —
	// and that it joined a fleet of a different size than the pre-drain
	// peak it left.
	sawDown := false
	revived := false
	peakBefore, reviveSize := 0.0, 0.0
	for _, ev := range results[0].Events {
		switch ev.Kind {
		case obs.KindScaleDown:
			sawDown = true
		case obs.KindScaleUp:
			if sawDown {
				if !revived {
					reviveSize = ev.Val
				}
				revived = true
			} else if ev.Val > peakBefore {
				peakBefore = ev.Val
			}
		}
	}
	if !revived {
		t.Fatal("no scale-up after a retirement: nothing revived")
	}
	if reviveSize == peakBefore {
		t.Fatalf("revival rejoined a fleet of the pre-drain peak size (%v); the revive case wants a different size", reviveSize)
	}
}
