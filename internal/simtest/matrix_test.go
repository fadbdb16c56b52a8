package simtest_test

import (
	"testing"

	"libra/internal/cluster"
	"libra/internal/core"
	"libra/internal/faults"
	"libra/internal/function"
	"libra/internal/platform"
	"libra/internal/simtest"
	"libra/internal/trace"
)

// TestWallDriverMatchesSimMatrix is the sim/live parity matrix: every
// (variant × seed × faults × autoscale) cell must replay
// byte-identically — report and full lifecycle trace — on the serial
// sim engine and on the wall driver under a manual time source, the
// live-serving code path replayed deterministically. Under -short only
// one representative cell per variant runs (the fully-loaded one:
// faults on, autoscale on); the full run covers the cross product.
func TestWallDriverMatchesSimMatrix(t *testing.T) {
	chaos := faults.Config{CrashMTBF: 40, MTTR: 5, OOMKill: true, StragglerFraction: 0.1}
	elastic := platform.AutoscaleConfig{
		Group:    cluster.NodeGroup{Name: "matrix", Max: 6},
		Cooldown: 2,
	}
	m := simtest.Matrix{
		Variants: []core.Variant{core.VariantDefault, core.VariantFreyr, core.VariantLibra, core.VariantLibraNSP},
		Seeds:    []int64{3, 17, 29},
		Faults: []simtest.FaultAxis{
			{Name: "nofaults"},
			{Name: "chaos", Config: core.Config{Faults: chaos}},
		},
		Autoscale: []simtest.AutoscaleAxis{
			{Name: "static"},
			{Name: "elastic", Config: core.Config{Autoscale: elastic}},
		},
		Testbed: core.TestbedMultiNode,
		Workload: func(v core.Variant, seed int64) trace.Set {
			return trace.Generate("matrix-"+string(v), function.Apps(), 100, 240, seed)
		},
	}
	if testing.Short() {
		m.Seeds = m.Seeds[:1]
		m.Faults = m.Faults[1:]
		m.Autoscale = m.Autoscale[1:]
	}

	m.Run(t, simtest.Serial(), simtest.WallManual())
}
