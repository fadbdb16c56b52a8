package platform

import (
	"math/rand"
	"testing"

	"libra/internal/cluster"
	"libra/internal/function"
	"libra/internal/resources"
	"libra/internal/trace"
)

// biggestApp returns the app with the widest CPU reservation in the
// standard mix (6 cores — over a 24-core node's slice at 5+ shards).
func biggestApp(t *testing.T) *function.Spec {
	t.Helper()
	apps := function.Apps()
	best := apps[0]
	for _, a := range apps {
		if a.UserAlloc.CPU > best.UserAlloc.CPU {
			best = a
		}
	}
	if best.UserAlloc.CPU != resources.Cores(6) {
		t.Fatalf("widest app reserves %v, want 6 cores (mix changed?)", best.UserAlloc)
	}
	return best
}

// TestTooManyShardsReplayTerminates pins the liveness guard: dividing a
// 24-core node eight ways yields 3-core shard slices, so the mix's
// wider apps can never be admitted. Before the unplaceable exit this
// replay hung forever — the periodic tickers kept the event heap
// non-empty while the ready queue starved. Now the impossible work is
// abandoned at admission and everything placeable completes.
func TestTooManyShardsReplayTerminates(t *testing.T) {
	set := trace.JetstreamSet(300, 900, 42)
	slice := JetstreamCap
	slice.CPU /= 8
	slice.Mem /= 8
	impossible := 0
	for _, ti := range set.Invocations {
		spec, _ := function.ByName(ti.App)
		if !spec.UserAlloc.Fits(slice) {
			impossible++
		}
	}
	if impossible == 0 {
		t.Fatal("trace has no invocation wider than an eighth-slice; probe is vacuous")
	}

	res := mustNew(PresetLibra(Jetstream(50, 8), 42)).Run(set)
	if res.Unplaceable != impossible {
		t.Fatalf("Unplaceable = %d, want %d (one per invocation wider than its shard slice)",
			res.Unplaceable, impossible)
	}
	if res.Faults.Abandoned < res.Unplaceable {
		t.Fatalf("Abandoned = %d < Unplaceable = %d; unplaceable exits must count as abandonment",
			res.Faults.Abandoned, res.Unplaceable)
	}
	if got := len(res.Records) + res.Faults.Abandoned; got != len(set.Invocations) {
		t.Fatalf("conservation: records %d + abandoned %d = %d, want %d",
			len(res.Records), res.Faults.Abandoned, got, len(set.Invocations))
	}
}

// TestFourShardsPlaceEveryApp is the control: at the figs2/figs3 shard
// width the slices hold every reservation in the mix, so the guard must
// stay silent and the replay completes everything.
func TestFourShardsPlaceEveryApp(t *testing.T) {
	set := trace.JetstreamSet(300, 900, 42)
	res := mustNew(PresetLibra(Jetstream(50, 4), 42)).Run(set)
	if res.Unplaceable != 0 {
		t.Fatalf("Unplaceable = %d, want 0 at 4 schedulers", res.Unplaceable)
	}
	if len(res.Records) != len(set.Invocations) {
		t.Fatalf("completed %d of %d", len(res.Records), len(set.Invocations))
	}
}

// TestGuardWaitsForElasticGroup pins that the guard reasons over every
// node shape the cluster can contain, not just the booted fleet: the
// base node is too narrow for the widest app, but the elastic group's
// instance shape holds it, so the work must queue until scale-up
// instead of being abandoned at admission.
func TestGuardWaitsForElasticGroup(t *testing.T) {
	app := biggestApp(t)
	rng := rand.New(rand.NewSource(7))
	set := trace.Set{Name: "wide-burst"}
	for i := 0; i < 8; i++ {
		set.Invocations = append(set.Invocations, trace.Invocation{
			ID: int64(i), App: app.Name, Arrival: float64(i) * 0.1,
			Input: app.SampleInput(rng),
		})
	}

	cfg := PresetLibra(Testbed{
		Nodes: 1, Schedulers: 1,
		NodeCap: resources.Vector{CPU: resources.Cores(4), Mem: 4 * 1024},
	}, 7)
	cfg.Autoscale = AutoscaleConfig{
		Group:    cluster.NodeGroup{Name: "wide", Max: 2, Cap: JetstreamCap},
		Interval: 1, Cooldown: 1,
	}
	res := mustNew(cfg).Run(set)
	if res.Unplaceable != 0 {
		t.Fatalf("Unplaceable = %d, want 0: the group's instance shape fits the app", res.Unplaceable)
	}
	if len(res.Records) != len(set.Invocations) {
		t.Fatalf("completed %d of %d; wide work should place after scale-up",
			len(res.Records), len(set.Invocations))
	}
	if res.Scale.ScaleUps == 0 {
		t.Fatal("no scale-ups: the wide work can only have run on a group node")
	}
}
