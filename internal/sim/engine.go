// Package sim provides a deterministic discrete-event simulation engine
// with a virtual clock. It is the substrate on which the serverless
// cluster, the harvest pools and the schedulers run: every latency the
// experiments report is virtual time accumulated by events scheduled here.
//
// The engine is single-goroutine by design, and it is the only
// virtual-time engine. Determinism matters more than parallel speed for
// reproducing the paper's figures: two events scheduled for the same
// instant fire in scheduling order (a monotone sequence number breaks
// ties), so a run is a pure function of (workload, seed). Parallelism
// lives one level up, across independent runs (the experiments worker
// pool), where it needs no coordination.
//
// Engine is the virtual-time implementation of clock.Clock — the same
// platform code runs live on the wall-clock driver in internal/clock.
// Both drivers keep their events in the one clock.Queue, so they share
// the Clock contract spelled out in that package's doc by construction:
// FIFO ordering of same-instant events, pooled records, and
// generation-checked no-op cancellation — the cluster routinely cancels
// events that have already fired (completion re-rating, the safeguard
// and OOM timers), and those stale cancels must stay no-ops. What the
// engine adds is virtual-time policy: Now jumps to each event's fire
// time, At panics on the past, and RunUntil and the post-step hook
// serve the replays and property tests.
package sim

import (
	"fmt"
	"math"

	"libra/internal/clock"
)

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now      float64
	q        clock.Queue
	postStep func()
}

// Engine satisfies the clock contract the platform is written against.
var _ clock.Runner = (*Engine)(nil)

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds. Per the Clock
// contract it is monotonically non-decreasing, and during a callback it
// reads exactly the callback's scheduled fire time.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of live events still queued. Cancelled
// events lazily parked in the queue (see Cancel) are not counted: from
// the caller's perspective they will never fire, so "pending" means
// exactly the events that still can.
func (e *Engine) Pending() int { return e.q.Pending() }

// QueueLen returns the physical queue length, including cancelled events
// that have not been collected yet. Diagnostics only — Pending is the
// semantic count.
func (e *Engine) QueueLen() int { return e.q.Len() }

// Fired returns how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.q.Fired() }

// Schedule queues fn to run after delay seconds of virtual time.
// A negative delay is treated as zero (fires at the current instant, after
// all callbacks already queued for this instant).
func (e *Engine) Schedule(delay float64, fn func()) clock.Handle {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At queues fn to run at absolute virtual time t. Scheduling into the past
// panics: that is always a logic bug in the caller, and silently clamping
// would corrupt causality in the experiments. (The wall-clock driver
// clamps instead — real time cannot be replayed; see clock.Driver.At.)
func (e *Engine) At(t float64, fn func()) clock.Handle {
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN time")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (t=%g, now=%g)", t, e.now))
	}
	return e.q.Push(t, fn)
}

// Cancel marks the handled event so it will not fire, per the Clock
// contract: cancelling an already-fired, already-cancelled, stale
// (recycled) or zero handle is a no-op, as is a handle issued by another
// clock. See clock.Queue.Cancel for the lazy deletion that keeps it O(1).
func (e *Engine) Cancel(h clock.Handle) { e.q.Cancel(h) }

// Step pops and runs the next live event. It returns false when no live
// events remain.
func (e *Engine) Step() bool {
	at, fn, ok := e.q.Pop()
	if !ok {
		return false
	}
	e.now = at
	fn()
	if e.postStep != nil {
		e.postStep()
	}
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with fire time ≤ t, then advances the clock to
// exactly t (even if no event fired there). The Clock contract's
// monotonic-Now guarantee holds throughout: the clock only ever moves
// forward, first event by event and then in one jump to t. Events
// cancelled before their fire time never run, even if their record is
// still parked in the queue when their instant passes.
func (e *Engine) RunUntil(t float64) {
	for {
		if at, ok := e.q.Peek(); !ok || at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// MaxQueueLen reports the high-water mark of the event queue, useful when
// sizing scalability experiments.
func (e *Engine) MaxQueueLen() int { return e.q.MaxLen() }

// SetPostStep installs a hook that runs after every fired event callback,
// while the clock still reads the event's fire time. It exists for
// auditing invariants between events (the conservation property tests);
// the hook must not schedule or cancel events. Pass nil to remove it.
func (e *Engine) SetPostStep(fn func()) { e.postStep = fn }
