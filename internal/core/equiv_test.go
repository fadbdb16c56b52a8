package core_test

import (
	"math/rand"
	"testing"

	"libra/internal/cluster"
	"libra/internal/core"
	"libra/internal/faults"
	"libra/internal/function"
	"libra/internal/platform"
	"libra/internal/simtest"
	"libra/internal/trace"
)

// equivEngines is the full driver line-up the replay guarantee covers:
// the serial sim engine and the wall driver under mocked time (live
// mode is sim mode with a different clock).
func equivEngines() []simtest.EngineFactory {
	return []simtest.EngineFactory{
		simtest.Serial(),
		simtest.WallManual(),
	}
}

// TestWallDriverReplayMatchesSim is the API-redesign acceptance test:
// the exact same platform code produces the exact same run — report and
// full invocation-lifecycle trace — whatever Clock drives it.
func TestWallDriverReplayMatchesSim(t *testing.T) {
	for _, variant := range []core.Variant{core.VariantDefault, core.VariantLibra} {
		simtest.Run(t, simtest.Case{
			Name:     string(variant),
			Config:   core.Config{Variant: variant, Testbed: core.TestbedMultiNode, Seed: 7},
			Workload: trace.Generate("equiv", function.Apps(), 120, 300, 7),
		}, equivEngines()...)
	}
}

// TestWallDriverReplayMatchesSimAutoscale pins the elastic controller
// into the replay guarantee: scale-ups, drains and retirements fire at
// the same virtual instants — same node IDs, same abort sets — on every
// clock implementation.
func TestWallDriverReplayMatchesSimAutoscale(t *testing.T) {
	scale := platform.AutoscaleConfig{
		Group:    cluster.NodeGroup{Name: "equiv", Max: 6},
		Cooldown: 2,
	}
	// A front-loaded burst (deep backlog → scale-up) with a sparse tail
	// that keeps the run alive through the lull so drains fire too.
	set := trace.ConcurrentBurst(250, 13)
	rng := rand.New(rand.NewSource(13))
	apps := function.Apps()
	for i := 0; i < 8; i++ {
		app := apps[i%len(apps)]
		set.Invocations = append(set.Invocations, trace.Invocation{
			ID: int64(250 + i), App: app.Name, Arrival: 120 + 60*float64(i),
			Input: app.SampleInput(rng),
		})
	}

	results := simtest.Run(t, simtest.Case{
		Name:     "autoscale",
		Config:   core.Config{Variant: core.VariantLibra, Testbed: core.TestbedMultiNode, Seed: 13, Autoscale: scale},
		Workload: set,
	}, equivEngines()...)
	if rep := results[0].Report; rep.ScaleUps == 0 || rep.ScaleDowns == 0 {
		t.Fatalf("scenario exercised no elasticity (ups=%d downs=%d)", rep.ScaleUps, rep.ScaleDowns)
	}
}

// TestWallDriverReplayMatchesSimChaos is the chaos acceptance test: the
// same fault schedule — node crashes, OOM kills, stragglers — fires at
// the same virtual instants and produces the same report and trace on
// every clock implementation. Chaos is deterministic replay input, not
// wall-clock noise.
func TestWallDriverReplayMatchesSimChaos(t *testing.T) {
	chaos := faults.Config{CrashMTBF: 40, MTTR: 5, OOMKill: true, StragglerFraction: 0.1}
	results := simtest.Run(t, simtest.Case{
		Name:     "chaos",
		Config:   core.Config{Variant: core.VariantLibra, Testbed: core.TestbedMultiNode, Seed: 11, Faults: chaos},
		Workload: trace.Generate("equiv-chaos", function.Apps(), 150, 400, 11),
	}, equivEngines()...)
	if results[0].Report.Crashes == 0 {
		t.Fatal("chaos schedule injected no crashes; the test exercises nothing")
	}
}
