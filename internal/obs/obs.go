// Package obs is the invocation-lifecycle observability layer: a
// deterministic trace recorder for the per-request latency attribution
// the paper's evaluation leans on (§8.5) — where did each invocation's
// time go: scheduling, cold start, harvest accelerations, safeguard
// retreats, failures and retries.
//
// Every span event carries the virtual timestamp at which it happened,
// the subject invocation, and kind-specific detail (node, counterparty,
// resource axis, magnitude). Events are emitted by the platform, the
// worker nodes, the harvest pools and the sharding schedulers through
// the Tracer interface; a nil Tracer is the disabled state and costs
// exactly one nil check per potential event — no Event is constructed,
// no allocation happens, and the simulation outcome is byte-identical
// to an untraced run (pinned by tests in internal/platform).
//
// Determinism: each platform run is single-goroutine, so a Recorder
// observes events in engine order and a run's trace is a pure function
// of (workload, seed). For parallel experiment harnesses, Collector
// hands out one Recorder per fan-out unit and flushes them in unit
// order, so the exported JSONL is byte-identical across -parallel
// settings — the same per-unit discipline the experiment renders use.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Kind is the type of a span event. The taxonomy covers the full
// invocation lifecycle plus every allocation re-rate that can change an
// in-flight execution's speed (DESIGN.md §6e).
type Kind uint8

const (
	// KindArrival: the front end accepted the invocation (App is set).
	KindArrival Kind = iota
	// KindQueued: the invocation entered a sharding scheduler's decision
	// queue; Val is the completed attempt count (0 = first try, >0 = a
	// retry re-entering after backoff).
	KindQueued
	// KindDecision: a scheduler placed the invocation on Node; Val is the
	// weighted demand-coverage score of the chosen node (0 when the
	// hash-locality path or a non-coverage algorithm decided).
	KindDecision
	// KindColdStart / KindWarmStart: container acquisition on Node.
	KindColdStart
	KindWarmStart
	// KindExecStart: container ready, code execution begins.
	KindExecStart
	// KindHarvest: Val idle units were harvested from the invocation into
	// the node's Axis pool.
	KindHarvest
	// KindLoanGrant: the invocation borrowed Val Axis units from Peer's
	// harvested remainder (an upward re-rate).
	KindLoanGrant
	// KindLoanRevoke: Val Axis units on loan from Peer were preemptively
	// revoked from the invocation (a downward re-rate).
	KindLoanRevoke
	// KindReharvest: the borrower Peer finished and returned Val Axis
	// units to the invocation's pool entry.
	KindReharvest
	// KindExpire: Val pooled Axis units of the invocation were dropped as
	// stale (expiry estimate passed while still pooled).
	KindExpire
	// KindBonus: the invocation received Val Axis units of revocable
	// burst capacity (profiling-window maximum allocation, §4.3.2).
	KindBonus
	// KindSafeguard: the safeguard daemon fired — everything harvested
	// from the invocation retreats to it (§5.2).
	KindSafeguard
	// KindOOMKill: the kernel killed the invocation at its memory peak
	// while harvested memory was out on loan.
	KindOOMKill
	// KindCrashAbort: the invocation's node crashed with it in flight.
	KindCrashAbort
	// KindComplete: the invocation finished; Val is its end-to-end
	// response latency.
	KindComplete
	// KindAbandon: the retry budget is spent; the invocation is given up.
	KindAbandon
	// KindDeadline: the invocation's admission deadline passed while it
	// was still queued; it was dropped instead of executed late. Val is
	// the attempt count at expiry.
	KindDeadline
	// KindScaleUp: the autoscale controller added Node to the cluster
	// (fresh or revived from the parked pool); Val is the member count
	// after the change. Inv is -1: scale events belong to no invocation.
	KindScaleUp
	// KindScaleDrain: the controller began draining Node for scale-down;
	// Val is the warm containers evicted by the drain.
	KindScaleDrain
	// KindScaleDown: the controller retired Node; Val is the member count
	// after the change.
	KindScaleDown

	kindCount // sentinel, keep last
)

var kindNames = [kindCount]string{
	"arrival", "queued", "decision", "cold_start", "warm_start",
	"exec_start", "harvest", "loan_grant", "loan_revoke", "reharvest",
	"expire", "bonus", "safeguard", "oom_kill", "crash_abort",
	"complete", "abandon", "deadline_expired",
	"scale_up", "scale_drain", "scale_down",
}

// String names the kind as it appears in the JSONL export.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalJSON writes the kind as its stable string name, so traces stay
// readable and parseable even if the enum is reordered.
func (k Kind) MarshalJSON() ([]byte, error) {
	if int(k) >= len(kindNames) {
		return nil, fmt.Errorf("obs: cannot marshal unknown Kind(%d)", uint8(k))
	}
	return json.Marshal(kindNames[k])
}

// UnmarshalJSON parses a kind name written by MarshalJSON.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i, name := range kindNames {
		if name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one typed span event of an invocation's lifecycle.
type Event struct {
	// T is the virtual timestamp in seconds.
	T float64 `json:"t"`
	// Inv is the subject invocation.
	Inv int64 `json:"inv"`
	// Kind tells what happened; the remaining fields are kind-specific.
	Kind Kind `json:"kind"`
	// Node is the worker node involved, -1 when none is.
	Node int `json:"node"`
	// Peer is the counterparty invocation of a loan event (the source on
	// grants/revokes, the borrower on reharvests).
	Peer int64 `json:"peer,omitempty"`
	// Axis is the resource axis of a pool event: "cpu" or "mem".
	Axis string `json:"axis,omitempty"`
	// App is the function name (set on arrival events).
	App string `json:"app,omitempty"`
	// Val is the kind-specific magnitude: a volume in millicores/MB, a
	// coverage score, an attempt count, or a latency.
	Val float64 `json:"val,omitempty"`
}

// Tracer records span events. Implementations are not required to be
// goroutine-safe: a tracer is only ever driven by one simulation engine,
// which is single-goroutine by design.
type Tracer interface {
	Record(ev Event)
}

// Recorder is the standard in-memory Tracer: an append-only event log in
// engine order.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record implements Tracer.
func (r *Recorder) Record(ev Event) { r.events = append(r.events, ev) }

// Events returns the recorded events in emission (engine) order.
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// WriteJSONL writes events one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a trace written by WriteJSONL. Blank lines are
// skipped; any malformed line is an error naming its line number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Collector organizes Recorders for a parallel fan-out so the merged
// trace order never depends on completion order: each sequential fan-out
// claims a Block sized to its unit count, every unit records into its
// own pre-allocated Recorder, and the flush walks blocks in claim order
// and units in index order. Block claims happen on the orchestrating
// goroutine between fan-outs; Unit recorders are touched by exactly one
// worker each, so no locking guards the hot path.
type Collector struct {
	mu     sync.Mutex
	blocks []*Block
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// Block claims the next block of n per-unit recorders.
func (c *Collector) Block(n int) *Block {
	b := &Block{recs: make([]*Recorder, n)}
	for i := range b.recs {
		b.recs[i] = NewRecorder()
	}
	c.mu.Lock()
	c.blocks = append(c.blocks, b)
	c.mu.Unlock()
	return b
}

// Events concatenates every block's units in deterministic (block, unit)
// order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for _, b := range c.blocks {
		for _, r := range b.recs {
			out = append(out, r.events...)
		}
	}
	return out
}

// WriteJSONL exports the collected trace in deterministic order.
func (c *Collector) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, c.Events())
}

// Block is one fan-out's worth of per-unit recorders.
type Block struct {
	recs []*Recorder
}

// Unit returns unit i's Recorder.
func (b *Block) Unit(i int) *Recorder { return b.recs[i] }

// Events returns unit i's recorded events.
func (b *Block) Events(i int) []Event { return b.recs[i].Events() }

// Units returns the block's unit count.
func (b *Block) Units() int { return len(b.recs) }
