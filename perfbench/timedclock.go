package main

import (
	"time"

	"libra/internal/clock"
	"libra/internal/obs"
)

// Callback classes. A callback is classed by the first obs event it
// emits; one that emits nothing is a tick. The exception is a callback
// scheduled with zero delay from inside another callback: it continues
// its parent's step (the cluster defers each completion's platform tail,
// and with it the drain pass, that way) and keeps the parent's class.
const (
	classNone = iota // not yet known: the callback has emitted nothing
	classArrival
	classComplete
	classTick
	classOther
	numClasses
)

var classMetric = [numClasses]string{
	classArrival:  "platform.arrival_s",
	classComplete: "platform.complete_s",
	classTick:     "platform.tick_s",
	classOther:    "platform.other_s",
}

func classOf(k obs.Kind) int {
	switch k {
	case obs.KindArrival:
		return classArrival
	case obs.KindComplete:
		return classComplete
	default:
		return classOther
	}
}

// timedClock wraps the serial sim engine handed to core.RunOn. It times
// every Schedule/At/Cancel and every fired callback, and it is also the
// run's obs.Tracer, so it can class each callback by what it emits and
// fold the event stream into exact per-layer counts. It is driven by
// one goroutine, like the engine it wraps.
type timedClock struct {
	inner clock.Runner

	scheduleNs int64
	runNs      int64
	cbNs       [numClasses]int64
	cbCount    [numClasses]int64
	cur        int // class of the running callback; classNone between callbacks
	inCallback bool

	drainDispatches int64
	counts          eventCounts
	queuedAt        map[int64]float64 // last queued time per invocation
	decidedAt       map[int64]float64 // last decision time per invocation
	schedWait       float64           // Σ queued→decision, virtual s
	startWait       float64           // Σ decision→exec start, virtual s
	starts          int64
}

func newTimedClock(inner clock.Runner) *timedClock {
	return &timedClock{inner: inner, queuedAt: map[int64]float64{}, decidedAt: map[int64]float64{}}
}

func (c *timedClock) Now() float64 { return c.inner.Now() }

func (c *timedClock) Schedule(delay float64, fn func()) clock.Handle {
	w := c.wrap(fn, delay <= 0)
	t0 := time.Now()
	h := c.inner.Schedule(delay, w)
	c.scheduleNs += int64(time.Since(t0))
	return h
}

func (c *timedClock) At(t float64, fn func()) clock.Handle {
	w := c.wrap(fn, t <= c.inner.Now())
	t0 := time.Now()
	h := c.inner.At(t, w)
	c.scheduleNs += int64(time.Since(t0))
	return h
}

func (c *timedClock) Cancel(h clock.Handle) {
	t0 := time.Now()
	c.inner.Cancel(h)
	c.scheduleNs += int64(time.Since(t0))
}

// Run drains the engine, timing the whole loop so the engine's own
// dispatch cost is the loop's time minus its callbacks'.
func (c *timedClock) Run() {
	t0 := time.Now()
	c.inner.Run()
	c.runNs += int64(time.Since(t0))
}

func (c *timedClock) wrap(fn func(), zeroDelay bool) func() {
	inherit := classNone
	if zeroDelay && c.inCallback {
		inherit = c.cur
	}
	return func() {
		c.cur, c.inCallback = inherit, true
		t0 := time.Now()
		fn()
		dt := int64(time.Since(t0))
		if c.cur == classNone {
			c.cur = classTick
		}
		c.cbNs[c.cur] += dt
		c.cbCount[c.cur]++
		c.cur, c.inCallback = classNone, false
	}
}

// Record implements obs.Tracer.
func (c *timedClock) Record(ev obs.Event) {
	c.counts.add(ev)
	if c.cur == classNone && c.inCallback {
		c.cur = classOf(ev.Kind)
	}
	switch ev.Kind {
	case obs.KindQueued:
		c.queuedAt[ev.Inv] = ev.T
	case obs.KindDecision:
		if c.cur == classComplete {
			c.drainDispatches++
		}
		if q, ok := c.queuedAt[ev.Inv]; ok {
			c.schedWait += ev.T - q
			delete(c.queuedAt, ev.Inv)
		}
		c.decidedAt[ev.Inv] = ev.T
	case obs.KindExecStart:
		if d, ok := c.decidedAt[ev.Inv]; ok {
			c.startWait += ev.T - d
			c.starts++
			delete(c.decidedAt, ev.Inv)
		}
	}
}

func (c *timedClock) report(res *result) {
	var cbTotal int64
	for cls := classArrival; cls < numClasses; cls++ {
		res.set(classMetric[cls], float64(c.cbNs[cls])/1e9)
		cbTotal += c.cbNs[cls]
	}
	res.set("sim.schedule_s", float64(c.scheduleNs)/1e9)
	res.set("sim.dispatch_self_s", float64(c.runNs-cbTotal)/1e9)
	res.set("platform.drain_dispatches", float64(c.drainDispatches))
	c.counts.report(res)
	if d := c.counts.kinds[obs.KindDecision]; d > 0 {
		res.set("scheduler.decision_s", c.schedWait/float64(d))
	}
	if c.starts > 0 {
		res.set("cluster.exec_start_s", c.startWait/float64(c.starts))
	}
}

// eventCounts folds an obs event stream into the per-layer counts that
// follow from the events alone: decisions, the harvest-pool operations,
// container starts, crash aborts and retries.
type eventCounts struct {
	kinds   [32]int64
	events  int64
	retries int64 // queued events of a retry attempt
}

func (c *eventCounts) add(ev obs.Event) {
	c.events++
	if int(ev.Kind) < len(c.kinds) {
		c.kinds[ev.Kind]++
	}
	if ev.Kind == obs.KindQueued && ev.Val > 0 {
		c.retries++
	}
}

func (c *eventCounts) report(res *result) {
	n := func(k obs.Kind) float64 { return float64(c.kinds[k]) }
	res.set("obs.events", float64(c.events))
	res.set("scheduler.decisions", n(obs.KindDecision))
	res.set("harvest.harvests", n(obs.KindHarvest))
	res.set("harvest.loan_grants", n(obs.KindLoanGrant))
	res.set("harvest.loan_revokes", n(obs.KindLoanRevoke))
	res.set("harvest.reharvests", n(obs.KindReharvest))
	res.set("harvest.expires", n(obs.KindExpire))
	if g := n(obs.KindLoanGrant); g > 0 {
		res.set("harvest.revoke_ratio", n(obs.KindLoanRevoke)/g)
	}
	if s := n(obs.KindColdStart) + n(obs.KindWarmStart); s > 0 {
		res.set("cluster.cold_start_ratio", n(obs.KindColdStart)/s)
	}
	res.set("faults.crash_aborts", n(obs.KindCrashAbort))
	res.set("faults.retries", float64(c.retries))
}
