// Package clock defines the time abstraction the whole platform runs
// on: a Clock schedules callbacks into the future and cancels them, and
// nothing above this interface knows whether time is virtual or real.
// Two drivers satisfy it — the deterministic discrete-event engine
// (internal/sim) that replays experiments in virtual time, and the
// goroutine-safe wall-clock Driver in this package that runs the same
// platform code against physical timers for live serving.
//
// The Clock contract both implementations are pinned to:
//
//   - Now is monotonically non-decreasing. During a callback it reports
//     a time ≥ the callback's scheduled fire time (the sim reports it
//     exactly; the wall driver may have slipped past it).
//   - Schedule(delay, fn) runs fn once, no earlier than Now()+delay.
//     Negative delays clamp to zero. At(t, fn) is the absolute-time
//     form; scheduling into the past is a caller bug.
//   - Two callbacks due at the same instant fire in Schedule order
//     (FIFO), and a callback never runs concurrently with another —
//     every Clock serializes its callbacks on one goroutine, which is
//     what lets the platform, cluster and scheduler stay lock-free.
//   - Cancel(h) guarantees the handled callback will not run. It is a
//     no-op on the zero Handle, an already-fired or already-cancelled
//     event, and a stale handle to a recycled record (generation
//     check) — callers routinely cancel events that may have fired.
//
// Both drivers keep their events in the one Queue defined here: an
// (at, seq) heap with pooled, generation-checked records and lazy
// cancel. What differs between them is policy only — the sim panics on
// a past At while the wall Driver clamps it, and the Driver adds a
// mutex, a time Source to wait on, and Now pinned during callbacks.
package clock

// Clock is the scheduling substrate shared by the deterministic sim
// engine and the live wall-clock driver. See the package comment for the
// contract both implementations obey.
type Clock interface {
	// Now returns the current time in seconds (virtual or wall-relative,
	// depending on the driver). Monotonically non-decreasing.
	Now() float64
	// Schedule queues fn to run once after delay seconds. Negative
	// delays clamp to zero (fn fires at the current instant, after all
	// callbacks already queued for it).
	Schedule(delay float64, fn func()) Handle
	// At queues fn to run at absolute time t. Scheduling into the past
	// panics in the sim (a causality bug) and clamps to "immediately" in
	// the wall driver (wall time cannot be replayed).
	At(t float64, fn func()) Handle
	// Cancel guarantees the handled callback will not run. No-op on the
	// zero Handle, fired events, and stale (recycled) handles.
	Cancel(h Handle)
}

// Runner is satisfied by clocks that can run their queue to exhaustion
// synchronously — the sim engine, and the wall Driver under a manual
// time source. Platform.Run needs one; the live serving path does not.
type Runner interface {
	Clock
	// Run executes events until the queue drains.
	Run()
}

// Ticker fires a callback on a fixed period until stopped. It is the
// driver-agnostic building block for periodic behaviours: utilization
// sampling, health pings, safeguard monitor windows, load generation.
//
// Fires are scheduled at absolute multiples of the period, not relative
// to when the previous callback ran. Under the sim engine the two are
// identical (a callback always observes Now() == its fire time), but
// under the wall driver a loaded event loop pops ticks late — and
// rescheduling relative to the late pop would compound every delay into
// a permanently slower tick rate. Absolute scheduling makes late ticks
// fire back-to-back until they catch up, so the long-run rate is exact:
// an open-loop load generator offers the configured load even while the
// loop is saturated, instead of silently shedding it.
type Ticker struct {
	c       Clock
	period  float64
	next    float64
	fn      func()
	fire    func()
	ev      Handle
	stopped bool
}

// Every schedules fn to run every period seconds on c, starting one
// period from now. It panics on a non-positive period (that would loop
// the clock in place).
func Every(c Clock, period float64, fn func()) *Ticker {
	if period <= 0 {
		panic("clock: Every period must be positive")
	}
	t := &Ticker{c: c, period: period, next: c.Now() + period, fn: fn}
	// Bind the re-arming callback once: a ticker fires forever, and
	// allocating a fresh closure per fire shows up as steady-state churn
	// on every periodic path (sampling, pings, load generation).
	t.fire = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.next += t.period
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.c.At(t.next, t.fire)
}

// Stop halts the ticker and cancels its pending fire, so a stopped
// ticker leaves nothing live in the clock's queue: a draining run
// terminates as soon as the real work finishes instead of stepping one
// more empty period. Stop is idempotent and safe from within the
// ticker's own callback.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.c.Cancel(t.ev)
	t.ev = Handle{}
}
