package clock_test

import (
	"fmt"
	"testing"

	"libra/internal/clock"
	"libra/internal/sim"
)

// runScript schedules the same tangled event pattern on any Clock and
// records the order callbacks fire in: same-instant FIFO ties, nested
// scheduling from inside callbacks, cancellation of pending events, and
// a ticker that stops itself. The sim engine defines the reference
// order; the wall driver under a manual source must reproduce it.
func runScript(t *testing.T, c clock.Runner) []string {
	t.Helper()
	var got []string
	mark := func(label string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%g", label, c.Now())) }
	}
	c.Schedule(0.5, mark("a"))
	c.Schedule(0.5, mark("b"))
	c.Schedule(0.25, func() {
		mark("nest")()
		c.Schedule(0.25, mark("nested-child"))
		c.Schedule(0, mark("now"))
	})
	doomed := c.Schedule(0.75, mark("doomed"))
	c.Schedule(0.6, func() {
		mark("killer")()
		c.Cancel(doomed)
	})
	var tk *clock.Ticker
	ticks := 0
	tk = clock.Every(c, 0.3, func() {
		ticks++
		mark(fmt.Sprintf("tick%d", ticks))()
		if ticks == 3 {
			tk.Stop()
		}
	})
	c.At(1.5, mark("late"))
	c.Run()
	return got
}

// TestDriverMatchesEngineOrder pins the tentpole equivalence: the wall
// driver under a mocked time source fires events in exactly the
// (time, seq) order the sim engine does, so the platform behaves
// identically on either substrate.
func TestDriverMatchesEngineOrder(t *testing.T) {
	ref := runScript(t, sim.NewEngine())
	got := runScript(t, clock.NewDriver(clock.NewManualSource()))
	if len(ref) == 0 {
		t.Fatal("reference run fired nothing")
	}
	if fmt.Sprint(got) != fmt.Sprint(ref) {
		t.Fatalf("wall driver order diverged from sim engine:\n sim:  %v\n wall: %v", ref, got)
	}
}

// TestDriverRunAdvancesToLastEvent checks the manual-source replay
// semantics Run depends on: waits jump time instead of sleeping.
func TestDriverRunAdvancesToLastEvent(t *testing.T) {
	src := clock.NewManualSource()
	d := clock.NewDriver(src)
	var at float64
	d.Schedule(2.5, func() { at = d.Now() })
	d.Run()
	if at != 2.5 {
		t.Fatalf("callback saw Now()=%g, want 2.5", at)
	}
	if d.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", d.Pending())
	}
}

// TestDriverStaleHandleCancel checks the generation discipline: a handle
// to a fired event must not cancel the record's next occupant.
func TestDriverStaleHandleCancel(t *testing.T) {
	d := clock.NewDriver(clock.NewManualSource())
	h := d.Schedule(0.1, func() {})
	d.Run() // fires and recycles the record
	fired := false
	h2 := d.Schedule(0.1, func() { fired = true }) // reuses the freed record
	d.Cancel(h)                                    // stale: must be a no-op
	d.Run()
	if !fired {
		t.Fatal("stale Cancel killed the recycled record's new event")
	}
	if h2.Live() {
		t.Fatal("handle still live after its event fired")
	}
}

// TestDriverScheduleSteadyStateAllocs guards the free-list recycling:
// once warm, a schedule→fire cycle must not allocate, on either driver
// of the shared queue.
func TestDriverScheduleSteadyStateAllocs(t *testing.T) {
	forEachEngine(t, func(t *testing.T, c lifecycleRunner) {
		fn := func() {}
		for i := 0; i < 100; i++ { // warm the free list and heap capacity
			c.Schedule(0.001, fn)
		}
		c.Run()
		avg := testing.AllocsPerRun(1000, func() {
			c.Schedule(0.001, fn)
			c.Run()
		})
		if avg != 0 {
			t.Fatalf("schedule/fire cycle allocates %.1f/op, want 0", avg)
		}
	})
}
