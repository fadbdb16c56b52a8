package clock

import (
	"context"
	"math"
	"runtime"
	"sync"
	"time"
)

// Source abstracts physical time for the wall Driver, so tests can run
// the driver deterministically against a mocked clock. A Source's time
// is monotonic seconds since an arbitrary epoch.
type Source interface {
	// Now returns the source's current time in seconds.
	Now() float64
	// WaitUntil blocks until source time reaches t, or until wake
	// delivers (an earlier event was scheduled, or the driver is
	// stopping). t may be +Inf, meaning "wait for a wake only". Mock
	// sources may instead jump their clock forward to t and return
	// immediately — that is what makes a Driver run deterministic.
	WaitUntil(t float64, wake <-chan struct{})
}

// realSource is the production Source: time.Now anchored at an epoch,
// time.Timer-backed waits.
type realSource struct {
	epoch time.Time
}

// NewRealSource returns a Source backed by the machine's monotonic
// clock, with its epoch at the moment of the call.
func NewRealSource() Source { return &realSource{epoch: time.Now()} }

func (s *realSource) Now() float64 { return time.Since(s.epoch).Seconds() }

// spinMargin is how far before the deadline the timer path hands over
// to spin-waiting. Go timers wake 1–2 ms late on a busy single-core box
// (measured: a 20 µs timer wait costs ~1.9 ms wall), which an event
// loop firing every few microseconds cannot absorb — the serve
// throughput ceiling would be timer latency, not event cost. Spinning
// the last stretch costs at most spinMargin of one core per wait and
// only when the loop is otherwise idle; Gosched keeps the ingress
// goroutines runnable meanwhile.
const spinMargin = 2e-3

func (s *realSource) WaitUntil(t float64, wake <-chan struct{}) {
	if math.IsInf(t, 1) {
		<-wake
		return
	}
	if d := t - s.Now() - spinMargin; d > 0 {
		tm := time.NewTimer(time.Duration(d * float64(time.Second)))
		select {
		case <-tm.C:
		case <-wake:
			tm.Stop()
			return // an earlier event arrived; let the loop re-examine
		}
		tm.Stop()
	}
	for i := 0; s.Now() < t; i++ {
		select {
		case <-wake:
			return
		default:
		}
		if i&7 == 7 { // yield sparingly; each Gosched costs a scheduler round-trip
			runtime.Gosched()
		}
	}
}

// ManualSource is a mocked Source for deterministic driver runs: Now
// stands still until a WaitUntil jumps it to the requested instant. A
// Driver over a ManualSource fires events in exactly the (time, seq)
// order the sim engine would — the equivalence tests pin this.
type ManualSource struct {
	mu  sync.Mutex
	now float64
}

// NewManualSource returns a ManualSource at time zero.
func NewManualSource() *ManualSource { return &ManualSource{} }

// Now returns the mocked time.
func (s *ManualSource) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Advance moves the mocked clock forward by d seconds (no-op for d ≤ 0).
func (s *ManualSource) Advance(d float64) {
	s.mu.Lock()
	if d > 0 {
		s.now += d
	}
	s.mu.Unlock()
}

// WaitUntil jumps the mocked clock to t and returns immediately. An
// infinite t blocks on wake, mirroring the real source's idle wait.
func (s *ManualSource) WaitUntil(t float64, wake <-chan struct{}) {
	if math.IsInf(t, 1) {
		<-wake
		return
	}
	s.mu.Lock()
	if t > s.now {
		s.now = t
	}
	s.mu.Unlock()
}

// Driver is the wall-clock Clock implementation: the same Queue as the
// sim engine, driven by physical timers instead of a virtual clock.
// Unlike the engine it is goroutine-safe — Schedule, At, Cancel and Now
// may be called from any goroutine (HTTP handlers submit work this way)
// — but callbacks are serialized on the single goroutine running Run or
// Serve, preserving the Clock contract the lock-free platform code
// depends on.
//
// Construct with NewDriver (mockable Source) or NewWallDriver (machine
// clock).
type Driver struct {
	mu      sync.Mutex
	src     Source
	now     float64 // high-water mark of observed/fired time
	inCB    bool    // a callback is running; Now is pinned to its fire time
	q       Queue
	stopped bool
	wake    chan struct{}
}

// NewDriver returns a Driver over the given time source.
func NewDriver(src Source) *Driver {
	return &Driver{src: src, wake: make(chan struct{}, 1)}
}

// NewWallDriver returns a Driver over the machine's monotonic clock,
// with time zero at the moment of the call.
func NewWallDriver() *Driver { return NewDriver(NewRealSource()) }

// nudge wakes the run loop without blocking; a single pending token is
// enough — the loop re-examines the queue head after every wake.
func (d *Driver) nudge() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// Now returns the driver's current time in seconds since its epoch. It
// is monotonically non-decreasing even if the source briefly reads
// behind a fired event's timestamp (the loop may slip past due events).
func (d *Driver) Now() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nowLocked()
}

// nowLocked reads the source lazily: while a callback runs, time is
// pinned to the callback's fire time, exactly like the sim engine's
// Now. That is both contract-compliant (Now during a callback must be
// ≥ the fire time; the engine reports it exactly) and the difference
// between one source read per event and one per Now call — platform
// callbacks read the clock a dozen times per event, and at hundreds of
// thousands of events per second the nanotime calls alone were ~15% of
// the serve loop's CPU.
func (d *Driver) nowLocked() float64 {
	if d.inCB {
		return d.now
	}
	if t := d.src.Now(); t > d.now {
		d.now = t
	}
	return d.now
}

// Pending returns the number of live events still queued (cancelled
// events lazily parked in the queue are not counted). The serve smoke
// check reads it after shutdown to prove the queue drained.
func (d *Driver) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.q.Pending()
}

// Fired returns how many events have executed so far.
func (d *Driver) Fired() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.q.Fired()
}

// Schedule queues fn to run after delay seconds. Safe from any
// goroutine; fn itself always runs on the driver's loop goroutine.
func (d *Driver) Schedule(delay float64, fn func()) Handle {
	if delay < 0 {
		delay = 0
	}
	d.mu.Lock()
	h := d.q.Push(d.nowLocked()+delay, fn)
	inCB := d.inCB
	d.mu.Unlock()
	if !inCB { // the loop schedules most events from callbacks; it is already awake
		d.nudge()
	}
	return h
}

// At queues fn to run at absolute driver time t. Wall time cannot be
// replayed, so unlike the sim engine a past t clamps to "immediately"
// rather than panicking — a loadgen running behind schedule catches up
// by firing back-to-back.
func (d *Driver) At(t float64, fn func()) Handle {
	if math.IsNaN(t) {
		panic("clock: scheduling event at NaN time")
	}
	d.mu.Lock()
	if now := d.nowLocked(); t < now {
		t = now
	}
	h := d.q.Push(t, fn)
	inCB := d.inCB
	d.mu.Unlock()
	if !inCB {
		d.nudge()
	}
	return h
}

// Submit runs fn on the driver's loop goroutine as soon as possible.
// It is how external goroutines (HTTP handlers, signal handlers) mutate
// platform state without racing the event loop.
func (d *Driver) Submit(fn func()) { d.Schedule(0, fn) }

// Cancel marks the handled event so it will not fire; see Queue.Cancel.
func (d *Driver) Cancel(h Handle) {
	d.mu.Lock()
	d.q.Cancel(h)
	d.mu.Unlock()
}

// step pops and runs the next due event if one exists. It returns
// (fired, nextAt): fired is whether a callback ran; nextAt is the head
// event's time to wait for (NaN when the queue is empty).
func (d *Driver) step() (bool, float64) {
	d.mu.Lock()
	d.inCB = false // the previous callback (if any) has returned
	at, ok := d.q.Peek()
	if !ok {
		d.mu.Unlock()
		return false, math.NaN()
	}
	if at > d.nowLocked() {
		d.mu.Unlock()
		return false, at
	}
	_, fn, _ := d.q.Pop()
	if at > d.now {
		d.now = at
	}
	d.inCB = true
	d.mu.Unlock()
	fn()
	return true, 0
}

// Run executes events until the queue drains, waiting out the gaps on
// the time source. Under a ManualSource the waits jump time forward
// instead, so Run is a deterministic synchronous replay — the same
// contract as sim.Engine.Run, which is what lets Platform.Run drive
// either implementation.
func (d *Driver) Run() {
	for {
		fired, nextAt := d.step()
		if fired {
			continue
		}
		if math.IsNaN(nextAt) {
			return
		}
		d.src.WaitUntil(nextAt, d.wake)
	}
}

// Serve executes events until ctx is cancelled or Stop is called,
// idling (not returning) while the queue is empty — the live-serving
// loop. Pending events at stop time stay queued; callers that need a
// drained queue check Pending after Serve returns.
func (d *Driver) Serve(ctx context.Context) {
	if ctx != nil {
		defer context.AfterFunc(ctx, d.Stop)()
	}
	for {
		d.mu.Lock()
		stopped := d.stopped
		d.mu.Unlock()
		if stopped {
			return
		}
		fired, nextAt := d.step()
		if fired {
			continue
		}
		if math.IsNaN(nextAt) {
			nextAt = math.Inf(1)
		}
		d.src.WaitUntil(nextAt, d.wake)
	}
}

// Stop makes Serve return after the in-flight callback (if any)
// completes. Idempotent and safe from any goroutine, including a
// callback on the loop itself.
func (d *Driver) Stop() {
	d.mu.Lock()
	d.stopped = true
	d.mu.Unlock()
	d.nudge()
}
