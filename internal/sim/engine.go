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
// Both implementations obey the Clock contract spelled out in that
// package's doc: monotonic Now, FIFO ordering of same-instant events,
// serialized callbacks, and generation-checked no-op cancellation.
//
// Event records are pooled: once an event fires or a cancelled event is
// dropped from the queue, its record is recycled for the next Schedule
// call. Handles are generation-checked so a caller holding a handle to a
// recycled event cannot cancel its successor — the cluster routinely
// cancels events that have already fired (completion re-rating, the
// safeguard and OOM timers), and those stale cancels must stay no-ops.
package sim

import (
	"container/heap"
	"fmt"
	"math"

	"libra/internal/clock"
)

// Event is a scheduled callback record, owned by the engine and recycled
// after it fires. Callers never hold *Event directly; Schedule/At return
// a Handle instead.
type Event struct {
	at       float64
	seq      uint64
	gen      uint32
	fn       func()
	canceled bool
	index    int // heap index, -1 once popped
}

// Gen implements clock.Record.
func (ev *Event) Gen() uint32 { return ev.gen }

// EventCanceled implements clock.Record.
func (ev *Event) EventCanceled() bool { return ev.canceled }

// EventTime implements clock.Record.
func (ev *Event) EventTime() float64 { return ev.at }

// Handle identifies a scheduled event for cancellation. It is the
// driver-agnostic clock.Handle: the zero Handle is inert, and a handle
// expires as soon as its event fires or its cancellation is collected —
// the underlying record may then be recycled, and the stale handle keeps
// refusing to act on the new occupant (generation check).
type Handle = clock.Handle

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// compactMin is the floor below which cancelled events are left parked in
// the queue: compaction only pays off once the dead fraction is large.
const compactMin = 64

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now       float64
	seq       uint64
	queue     eventHeap
	ncanceled int      // cancelled events still parked in the queue
	free      []*Event // recycled event records
	fired     uint64
	maxLen    int
	postStep  func()
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
func (e *Engine) Pending() int { return len(e.queue) - e.ncanceled }

// QueueLen returns the physical queue length, including cancelled events
// that have not been collected yet. Diagnostics only — Pending is the
// semantic count.
func (e *Engine) QueueLen() int { return len(e.queue) }

// Fired returns how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// alloc returns a fresh or recycled event record.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// release recycles an event record once it has fired or its cancellation
// has been collected. Bumping the generation invalidates every handle
// still pointing at the record.
func (e *Engine) release(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	ev.index = -1
	e.free = append(e.free, ev)
}

// Schedule queues fn to run after delay seconds of virtual time.
// A negative delay is treated as zero (fires at the current instant, after
// all callbacks already queued for this instant).
func (e *Engine) Schedule(delay float64, fn func()) Handle {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At queues fn to run at absolute virtual time t. Scheduling into the past
// panics: that is always a logic bug in the caller, and silently clamping
// would corrupt causality in the experiments. (The wall-clock driver
// clamps instead — real time cannot be replayed; see clock.Driver.At.)
func (e *Engine) At(t float64, fn func()) Handle {
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN time")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (t=%g, now=%g)", t, e.now))
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	heap.Push(&e.queue, ev)
	if len(e.queue) > e.maxLen {
		e.maxLen = len(e.queue)
	}
	return clock.NewHandle(ev, ev.gen)
}

// Cancel marks the handled event so it will not fire, per the Clock
// contract: cancelling an already-fired, already-cancelled, stale
// (recycled) or zero handle is a no-op, as is a handle issued by another
// clock implementation. The event record stays parked in the queue (lazy
// deletion) and is collected either when it surfaces at the top or when
// cancelled records pile up past the compaction threshold — so a cancel
// is O(1) instead of the O(log n) heap.Remove, which dominates the
// cluster's re-rating churn.
func (e *Engine) Cancel(h Handle) {
	ev, ok := h.Impl().(*Event)
	if !ok || ev.gen != h.Gen() || ev.canceled {
		return
	}
	ev.canceled = true
	if ev.index >= 0 {
		e.ncanceled++
		if e.ncanceled > compactMin && e.ncanceled*2 > len(e.queue) {
			e.compact()
		}
	}
}

// compact drops every cancelled record from the queue in one pass and
// re-establishes the heap invariant. Fire order is unaffected: the heap
// comparator is a strict total order on (at, seq), so any valid heap over
// the same live set pops in the same sequence.
func (e *Engine) compact() {
	live := e.queue[:0]
	for _, ev := range e.queue {
		if ev.canceled {
			e.release(ev)
		} else {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = live
	for i, ev := range e.queue {
		ev.index = i
	}
	heap.Init(&e.queue)
	e.ncanceled = 0
}

// Step pops and runs the next live event. It returns false when no live
// events remain.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.canceled {
			e.ncanceled--
			e.release(ev)
			continue
		}
		e.now = ev.at
		e.fired++
		fn := ev.fn
		// Recycle before running the callback: any handle to this event is
		// dead the instant it fires (generation bump), and the callback's
		// own Schedule calls can reuse the record immediately.
		e.release(ev)
		fn()
		if e.postStep != nil {
			e.postStep()
		}
		return true
	}
	return false
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
		ev := e.peek()
		if ev == nil || ev.at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

func (e *Engine) peek() *Event {
	for len(e.queue) > 0 {
		if e.queue[0].canceled {
			ev := heap.Pop(&e.queue).(*Event)
			e.ncanceled--
			e.release(ev)
			continue
		}
		return e.queue[0]
	}
	return nil
}

// MaxQueueLen reports the high-water mark of the event queue, useful when
// sizing scalability experiments.
func (e *Engine) MaxQueueLen() int { return e.maxLen }

// SetPostStep installs a hook that runs after every fired event callback,
// while the clock still reads the event's fire time. It exists for
// auditing invariants between events (the conservation property tests);
// the hook must not schedule or cancel events. Pass nil to remove it.
func (e *Engine) SetPostStep(fn func()) { e.postStep = fn }

// Ticker fires a callback on a fixed virtual-time period until stopped.
// It is the driver-agnostic clock.Ticker: the building block for
// periodic behaviours — utilization sampling, health pings, safeguard
// monitor windows — on either clock implementation. Its contract is
// pinned to the Clock spec: the first fire comes one period after
// creation, re-arming happens after the callback returns (so a callback
// that stops its own ticker leaves nothing queued), and Stop cancels the
// armed event so a stopped ticker never holds the queue open.
type Ticker = clock.Ticker

// Every schedules fn to run every period seconds, starting one period
// from now. It panics on a non-positive period (that would loop the
// clock in place).
func (e *Engine) Every(period float64, fn func()) *Ticker {
	return clock.Every(e, period, fn)
}
