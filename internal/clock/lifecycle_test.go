package clock_test

import (
	"math"
	"testing"

	"libra/internal/clock"
	"libra/internal/sim"
)

// The event-lifecycle edge cases — generation-checked stale handles,
// cancel of an already-popped record, lazy-cancel compaction mid-drain,
// free-list recycling across generations — are contract clauses every
// clock.Clock implementation must agree on: the platform cancels
// completion, safeguard and OOM timers that may already have fired, and
// a driver that diverged here would corrupt a replay silently. This
// suite runs each case against the serial sim engine and the wall
// driver under a manual time source.

type lifecycleRunner interface {
	clock.Runner
	Pending() int
	Fired() uint64
}

var lifecycleEngines = []struct {
	name string
	new  func() lifecycleRunner
}{
	{"sim", func() lifecycleRunner { return sim.NewEngine() }},
	{"wall-manual", func() lifecycleRunner { return clock.NewDriver(clock.NewManualSource()) }},
}

func forEachEngine(t *testing.T, f func(t *testing.T, c lifecycleRunner)) {
	for _, e := range lifecycleEngines {
		t.Run(e.name, func(t *testing.T) { f(t, e.new()) })
	}
}

// A handle to an event that already popped and ran must refuse to act:
// the record was recycled the instant the event fired, so the cancel is
// a generation-checked no-op even if the record's new occupant is live.
func TestLifecycleCancelFiredHandle(t *testing.T) {
	forEachEngine(t, func(t *testing.T, c lifecycleRunner) {
		var fired []string
		hA := c.Schedule(1, func() { fired = append(fired, "A") })
		c.Schedule(2, func() {
			c.Cancel(hA) // A fired at t=1; this must not touch its recycled record
			fired = append(fired, "B")
		})
		// C reuses A's record on the pooled implementations; the stale
		// cancel above must leave it alone.
		c.Schedule(3, func() { fired = append(fired, "C") })
		c.Run()
		if got := len(fired); got != 3 {
			t.Fatalf("fired %v, want A B C", fired)
		}
		if c.Fired() != 3 || c.Pending() != 0 {
			t.Fatalf("Fired=%d Pending=%d, want 3 and 0", c.Fired(), c.Pending())
		}
	})
}

// Cancelling twice decrements the pending count once and the event
// never fires; the second cancel sees canceled=true and returns.
func TestLifecycleDoubleCancel(t *testing.T) {
	forEachEngine(t, func(t *testing.T, c lifecycleRunner) {
		victim := false
		h := c.Schedule(1, func() { victim = true })
		c.Schedule(2, func() {})
		c.Cancel(h)
		if !h.Canceled() {
			t.Fatal("handle should report Canceled while lazily parked")
		}
		c.Cancel(h)
		if got := c.Pending(); got != 1 {
			t.Fatalf("Pending=%d after double cancel, want 1", got)
		}
		c.Run()
		if victim || c.Fired() != 1 {
			t.Fatalf("victim=%v Fired=%d, want false and 1", victim, c.Fired())
		}
	})
}

// The zero Handle and a handle issued by any other clock — another
// implementation, or another instance of the same one — are inert:
// Cancel must not panic and must not disturb either queue.
func TestLifecycleForeignAndZeroHandles(t *testing.T) {
	forEachEngine(t, func(t *testing.T, c lifecycleRunner) {
		var sameType, otherType lifecycleRunner = sim.NewEngine(), clock.NewDriver(clock.NewManualSource())
		if _, isDriver := c.(*clock.Driver); isDriver {
			sameType, otherType = otherType, sameType
		}
		for _, o := range []struct {
			name  string
			other lifecycleRunner
		}{{"other-type", otherType}, {"same-type", sameType}} {
			t.Run(o.name, func(t *testing.T) {
				otherFired := false
				foreign := o.other.Schedule(1, func() { otherFired = true })

				fired := false
				c.Schedule(1, func() { fired = true })
				c.Cancel(clock.Handle{})
				c.Cancel(foreign)
				c.Run()
				if !fired {
					t.Fatal("own event should fire despite foreign/zero cancels")
				}
				o.other.Run()
				if !otherFired {
					t.Fatal("foreign clock's event was disturbed by a cross-clock Cancel")
				}
			})
		}
	})
}

// Free-list recycling across generations: each round's record may be a
// recycled one from an earlier round, and every expired handle — fired
// or cancelled-and-collected — must stay dead across all later rounds.
func TestLifecycleStaleHandlesAcrossRecycling(t *testing.T) {
	forEachEngine(t, func(t *testing.T, c lifecycleRunner) {
		var stale []clock.Handle
		fired := 0
		for round := 0; round < 5; round++ {
			h := c.Schedule(1, func() { fired++ })
			dropped := c.Schedule(1.5, func() { t.Error("cancelled event fired") })
			c.Cancel(dropped)
			c.Run()
			if h.Live() || dropped.Live() {
				t.Fatalf("round %d: handles should be dead after Run", round)
			}
			stale = append(stale, h, dropped)
			for _, s := range stale {
				c.Cancel(s) // stale cancels against recycled records: all no-ops
			}
		}
		if fired != 5 {
			t.Fatalf("fired=%d, want 5", fired)
		}
		if c.Fired() != 5 || c.Pending() != 0 {
			t.Fatalf("Fired=%d Pending=%d, want 5 and 0", c.Fired(), c.Pending())
		}
	})
}

// A same-instant sibling scheduled later can still be cancelled by an
// earlier callback at that instant — FIFO order guarantees the victim
// has not popped yet.
func TestLifecycleCancelSameInstantSibling(t *testing.T) {
	forEachEngine(t, func(t *testing.T, c lifecycleRunner) {
		var fired []string
		var hY clock.Handle
		c.Schedule(1, func() {
			fired = append(fired, "X")
			c.Cancel(hY)
		})
		hY = c.Schedule(1, func() { fired = append(fired, "Y") })
		c.Schedule(1, func() { fired = append(fired, "Z") })
		c.Run()
		if len(fired) != 2 || fired[0] != "X" || fired[1] != "Z" {
			t.Fatalf("fired %v, want [X Z]", fired)
		}
	})
}

// An event cancelling its own handle mid-callback is a no-op: the
// record was popped and recycled before the callback started.
func TestLifecycleSelfCancelInCallback(t *testing.T) {
	forEachEngine(t, func(t *testing.T, c lifecycleRunner) {
		var h clock.Handle
		ran := false
		h = c.Schedule(1, func() {
			c.Cancel(h)
			ran = true
		})
		c.Run()
		if !ran || c.Fired() != 1 || c.Pending() != 0 {
			t.Fatalf("ran=%v Fired=%d Pending=%d", ran, c.Fired(), c.Pending())
		}
	})
}

// Mass cancellation from inside a callback pushes the lazy-cancel count
// past the compaction threshold while the queue is mid-drain. The
// compacted queue must preserve fire order and skip every victim.
func TestLifecycleCompactionMidDrain(t *testing.T) {
	forEachEngine(t, func(t *testing.T, c lifecycleRunner) {
		const total = 300
		const keep = 100
		handles := make([]clock.Handle, total)
		firedAt := make([]float64, 0, keep)
		for i := 0; i < total; i++ {
			at := float64(i + 2)
			handles[i] = c.At(c.Now()+at, func() { firedAt = append(firedAt, at) })
		}
		c.Schedule(1, func() {
			for i := keep; i < total; i++ {
				c.Cancel(handles[i])
			}
		})
		c.Run()
		if len(firedAt) != keep {
			t.Fatalf("%d events fired, want %d", len(firedAt), keep)
		}
		for i := 1; i < len(firedAt); i++ {
			if firedAt[i] <= firedAt[i-1] {
				t.Fatalf("fire order corrupted after compaction: %g after %g", firedAt[i], firedAt[i-1])
			}
		}
		if c.Pending() != 0 {
			t.Fatalf("Pending=%d after drain, want 0", c.Pending())
		}
	})
}

// Handle state machine: Live+Time while queued, Canceled while lazily
// parked, everything dead (Time = NaN) once the record is collected.
func TestLifecycleHandleStates(t *testing.T) {
	forEachEngine(t, func(t *testing.T, c lifecycleRunner) {
		want := c.Now() + 5
		h := c.Schedule(5, func() {})
		if !h.Live() || h.Canceled() || h.Time() != want {
			t.Fatalf("queued: Live=%v Canceled=%v Time=%g, want true false %g",
				h.Live(), h.Canceled(), h.Time(), want)
		}
		c.Cancel(h)
		if !h.Live() || !h.Canceled() {
			t.Fatalf("parked: Live=%v Canceled=%v, want true true", h.Live(), h.Canceled())
		}
		c.Run()
		if h.Live() || h.Canceled() || !math.IsNaN(h.Time()) {
			t.Fatalf("collected: Live=%v Canceled=%v Time=%g, want false false NaN",
				h.Live(), h.Canceled(), h.Time())
		}
	})
}

// A ticker stopped from its own callback leaves nothing queued, so a
// draining Run terminates without stepping an extra empty period.
func TestLifecycleTickerStopFromCallback(t *testing.T) {
	forEachEngine(t, func(t *testing.T, c lifecycleRunner) {
		ticks := 0
		var tk *clock.Ticker
		tk = clock.Every(c, 1, func() {
			ticks++
			if ticks == 3 {
				tk.Stop()
			}
		})
		c.Run()
		if ticks != 3 || c.Pending() != 0 {
			t.Fatalf("ticks=%d Pending=%d, want 3 and 0", ticks, c.Pending())
		}
		if got := c.Now(); got != 3 {
			t.Fatalf("Now=%g after stop, want 3 (no empty extra period)", got)
		}
	})
}
