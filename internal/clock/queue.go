package clock

import "math"

// event is a scheduled callback record, owned by one Queue and recycled
// after it fires or its cancellation is collected. Callers never hold
// *event directly; Push returns a Handle instead.
type event struct {
	q        *Queue // owner: Cancel refuses records from any other queue
	at       float64
	seq      uint64 // Push order; breaks ties between equal at
	gen      uint32
	canceled bool
	fn       func()
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// compactMin is the floor below which cancelled events are left parked in
// the queue: compaction only pays off once the dead fraction is large.
const compactMin = 64

// Queue is the event queue under both Clock drivers: a binary min-heap of
// record pointers ordered by (at, seq), with pooled, generation-checked
// records and lazy cancel. The key is a strict total order — seq is
// unique and monotone — so events due at the same instant pop in Push
// order, and any valid heap over the same live set pops in the same
// sequence.
//
// The heap holds 8-byte record pointers rather than (at, seq, record)
// value slots. Value slots avoid a pointer load per comparison, but they
// triple the slice's bytes per queued event, and on the 300k-event
// endurance replay the larger slice growth raised peak RSS by about 8 %
// for no throughput difference outside run-to-run noise.
//
// A record is released (generation bumped, returned to the free list) the
// moment it is popped or its cancellation is collected, so a Handle whose
// generation still matches refers to a record that is still queued.
//
// The zero Queue is empty and ready to use. It must not be copied after
// first use, because its records point back at it. It is not
// goroutine-safe; the wall Driver guards it with its own mutex.
type Queue struct {
	heap      []*event
	free      []*event
	seq       uint64
	ncanceled int // cancelled records still parked in the heap
	fired     uint64
	maxLen    int
}

// Len returns the physical queue length, including cancelled records that
// have not been collected yet.
func (q *Queue) Len() int { return len(q.heap) }

// Pending returns the number of live (not cancelled) events still queued.
func (q *Queue) Pending() int { return len(q.heap) - q.ncanceled }

// Fired returns how many live events Pop has handed out.
func (q *Queue) Fired() uint64 { return q.fired }

// MaxLen returns the high-water mark of Len.
func (q *Queue) MaxLen() int { return q.maxLen }

// Push queues fn at time t and returns its handle. t is taken as given:
// the drivers decide what a past or NaN time means.
func (q *Queue) Push(t float64, fn func()) Handle {
	var ev *event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		ev = &event{q: q}
	}
	ev.at, ev.seq, ev.fn = t, q.seq, fn
	q.heap = append(q.heap, ev)
	q.seq++
	q.up(len(q.heap) - 1)
	if len(q.heap) > q.maxLen {
		q.maxLen = len(q.heap)
	}
	return Handle{ev: ev, gen: ev.gen}
}

// Cancel marks the handled event so it will not fire. It is a no-op on
// the zero Handle, a handle issued by another queue, and an event that
// already fired, was already cancelled or was recycled (generation
// check). The record stays parked in the heap (lazy deletion) and is
// collected when it surfaces at the top, or all at once when cancelled
// records outnumber live ones past compactMin — so a cancel is O(1).
func (q *Queue) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.q != q || ev.gen != h.gen || ev.canceled {
		return
	}
	ev.canceled = true
	q.ncanceled++
	if q.ncanceled > compactMin && q.ncanceled*2 > len(q.heap) {
		q.compact()
	}
}

// Peek returns the fire time of the next live event, collecting cancelled
// records that surfaced at the top. ok is false when none remains.
func (q *Queue) Peek() (at float64, ok bool) {
	for len(q.heap) > 0 {
		if !q.heap[0].canceled {
			return q.heap[0].at, true
		}
		q.ncanceled--
		q.release(q.popTop())
	}
	return 0, false
}

// Pop removes the next live event and returns its time and callback. The
// record is recycled before the caller runs fn: a handle to the event is
// dead the instant it fires, and fn's own Push calls may reuse the
// record. ok is false when no live event remains.
func (q *Queue) Pop() (at float64, fn func(), ok bool) {
	if at, ok = q.Peek(); !ok {
		return 0, nil, false
	}
	ev := q.popTop()
	fn = ev.fn
	q.release(ev)
	q.fired++
	return at, fn, true
}

// release recycles a record. Bumping the generation invalidates every
// handle still pointing at it.
func (q *Queue) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	q.free = append(q.free, ev)
}

// popTop removes the heap's top entry and returns its record.
func (q *Queue) popTop() *event {
	ev := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap[n] = nil
	q.heap = q.heap[:n]
	if n > 0 {
		q.down(0)
	}
	return ev
}

// compact drops every cancelled record in one pass and re-heapifies the
// survivors. Fire order is unaffected (the key is a strict total order).
func (q *Queue) compact() {
	live := q.heap[:0]
	for _, ev := range q.heap {
		if ev.canceled {
			q.release(ev)
		} else {
			live = append(live, ev)
		}
	}
	clear(q.heap[len(live):])
	q.heap = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
	q.ncanceled = 0
}

func (q *Queue) up(i int) {
	h := q.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

func (q *Queue) down(i int) {
	h := q.heap
	n := len(h)
	e := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// Handle identifies a scheduled callback for cancellation. The zero
// Handle is inert: Cancel on it is a no-op and Live reports false. A
// handle expires as soon as its event fires or its cancellation is
// collected — the underlying record may then be recycled, and the stale
// handle keeps refusing to act on the new occupant (generation check).
// Handles are comparable: two handles are equal only if they name the
// same occupancy of the same record.
type Handle struct {
	ev  *event
	gen uint32
}

// Live reports whether the handle still refers to a queued event, i.e.
// the event has neither fired nor been dropped after cancellation. A
// cancelled event that is still lazily parked in the queue counts as
// live in the bookkeeping sense; use Canceled to distinguish.
func (h Handle) Live() bool { return h.ev != nil && h.ev.gen == h.gen }

// Canceled reports whether Cancel was called on the event the handle
// refers to. Once the event fires or its record is recycled this
// returns false, matching the zero Handle.
func (h Handle) Canceled() bool { return h.Live() && h.ev.canceled }

// Time returns the scheduled fire time of the event, or NaN if the
// handle no longer refers to a queued event.
func (h Handle) Time() float64 {
	if !h.Live() {
		return math.NaN()
	}
	return h.ev.at
}
