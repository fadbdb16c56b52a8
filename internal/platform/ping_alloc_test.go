package platform

import (
	"runtime"
	"runtime/debug"
	"testing"

	"libra/internal/harvest"
	"libra/internal/sim"
)

// The health-ping scan fires every PingInterval for the whole life of
// a replay, so per-fire allocation there is pure steady-state churn,
// held to the drain path's zero-alloc standard. Everything on the path
// is bound once at arm time or reused fire over fire: the ticker's
// re-arm closure, the per-node entry buffers, and the engine's event
// records. This pins the whole round — scan, index refresh, re-arm —
// at zero steady-state allocations.
func TestPingScanSteadyStateZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	cfg := PresetLibra(MultiNode(), 7)
	cfg.PingInterval = 1
	p, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Give the scan real work: pooled entries on every node, far from
	// expiry, so every round copies entries and refreshes the index.
	for i, n := range p.nodes {
		n.CPUPool.Put(0, harvest.ID(1000+i), 500, 1e9)
		n.MemPool.Put(0, harvest.ID(1000+i), 256, 1e9)
	}
	p.arm()

	// Warm up until every buffer reaches steady state, measure a window
	// of rounds, then stop the ticker so the engine drains. The
	// boundary probes run as their own events between ping rounds.
	const warmRounds, measureRounds = 16, 100
	var m0, m1 runtime.MemStats
	// Warmup probes prime what the boundary events themselves touch —
	// the engine's event-record free list grows on release, and that
	// growth must not be charged to the ping path — so the measured
	// window sees only the ping machinery itself.
	for i := 1; i <= 4; i++ {
		eng.At(float64(i)+0.5, func() { runtime.ReadMemStats(&m0) })
	}
	eng.At(warmRounds+0.5, func() { runtime.ReadMemStats(&m0) })
	eng.At(warmRounds+measureRounds+0.5, func() {
		runtime.ReadMemStats(&m1)
		p.stopPing()
	})
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	eng.Run()

	if d := m1.Mallocs - m0.Mallocs; d != 0 {
		t.Fatalf("ping scan allocated %d times over %d rounds, want 0",
			d, measureRounds)
	}
}
