// Package platform assembles the full serverless platform on top of the
// cluster substrate: front end, demand estimator, sharded schedulers,
// harvest policy and safeguard — in the six configurations the paper
// evaluates (§8.3): OpenWhisk Default, Freyr, Libra, and the Libra-NS /
// -NP / -NSP ablation variants — crossed with the five scheduling
// algorithms of §8.4.
package platform

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"libra/internal/clock"
	"libra/internal/cluster"
	"libra/internal/faults"
	"libra/internal/freyr"
	"libra/internal/function"
	"libra/internal/harvest"
	"libra/internal/metrics"
	"libra/internal/obs"
	"libra/internal/profiler"
	"libra/internal/resources"
	"libra/internal/safeguard"
	"libra/internal/scheduler"
	"libra/internal/sim"
	"libra/internal/trace"
)

// EstimatorKind selects the demand estimator.
type EstimatorKind int

const (
	// EstNone disables estimation (Default platform).
	EstNone EstimatorKind = iota
	// EstProfiler is Libra's profiler (§4).
	EstProfiler
	// EstWindow is the moving-window max (Libra-NP / -NSP variants).
	EstWindow
	// EstFreyr is the Freyr-analogue history estimator.
	EstFreyr
)

// String names the estimator kind for logs and errors.
func (k EstimatorKind) String() string {
	switch k {
	case EstNone:
		return "None"
	case EstProfiler:
		return "Profiler"
	case EstWindow:
		return "Window"
	case EstFreyr:
		return "Freyr"
	}
	return fmt.Sprintf("EstimatorKind(%d)", int(k))
}

// Overhead constants in virtual seconds. The front-end and pool-operation
// costs are from the latency breakdown discussion (§8.9: Libra components
// incur negligible overhead vs. container init and execution); the
// dispatch time models the controller's per-activation handling, which is
// what a single centralized scheduler bottlenecks on under bursts (§6.4).
const (
	FrontendOverhead = 0.0005
	DecisionOverhead = 0.0005 // pick-up → sent-to-node compute (Fig 12c)
	PoolOpOverhead   = 0.0002
	DefaultDispatch  = 0.025
)

// Config assembles a platform. Mandatory: Nodes, NodeCap. Zero values on
// the rest select the documented defaults.
type Config struct {
	Name    string
	Nodes   int
	NodeCap resources.Vector
	// Schedulers is the number of decentralized sharding schedulers
	// (default 1 = centralized).
	Schedulers int
	// Algorithm is one of scheduler.Names() (default "Libra").
	Algorithm string
	// Harvest enables harvesting + acceleration (false = Default).
	Harvest bool
	// Estimator picks the demand estimator (EstNone for Default).
	Estimator    EstimatorKind
	ProfilerMode profiler.Mode
	// Safeguard enables the per-container daemon; Threshold is the
	// usage-fraction trigger line (§5.2; default 0.8). The harvesting
	// headroom is the fixed safeguard.Margin, deliberately independent of
	// the threshold (see Fig 14).
	Safeguard bool
	Threshold float64
	// AggressiveHarvest drops the headroom margin (Freyr: allocation =
	// predicted peak exactly).
	AggressiveHarvest bool
	// TimelinessBlind marks harvested units with unbounded expiry
	// (Freyr: the pool and coverage cannot see availability windows).
	TimelinessBlind bool
	// CoverageAlpha is the demand-coverage weight α (default 0.9).
	CoverageAlpha float64
	// VolumeOnlyCoverage is the ablation switch for timeless coverage.
	VolumeOnlyCoverage bool
	// PoolLendOrder overrides the harvest pools' lending order (the
	// ablation for §5.1's longest-expiry-first priority).
	PoolLendOrder harvest.LendOrder
	// HarvestCPUOnly / HarvestMemOnly restrict harvesting and
	// acceleration to one resource axis. Memory-only mirrors OFC, which
	// "only harvests memory, whereas Libra jointly harvests CPU and
	// memory" (§9) — the joint-vs-single-axis comparison bench uses these.
	HarvestCPUOnly bool
	HarvestMemOnly bool
	// HistWindow overrides the profiler's histogram warm-up window.
	HistWindow int
	// MemRetreatAfter stops harvesting memory from a function after this
	// many safeguard triggers, retreating to the user-defined memory
	// allocation (§5.1 "Mitigating OOM"). Sentinel semantics: 0 selects
	// the default of 3 triggers, any negative value disables the retreat
	// entirely (memory keeps being harvested no matter how often the
	// safeguard fires), and a positive value is the trigger count itself.
	MemRetreatAfter int
	// DispatchTime is the scheduler's per-invocation handling time
	// (default DefaultDispatch).
	DispatchTime float64
	// PingInterval is how often nodes piggyback their harvest-pool status
	// on health pings (§6.4); schedulers compute coverage from these
	// possibly-stale snapshots. Default 1s; negative reads pools live.
	PingInterval float64
	// SampleInterval for utilization tracking (default 1s).
	SampleInterval float64
	// TrackBacklog records a backlog time series (ready-queue depth,
	// in-flight count, completions, abandonments) every SampleInterval —
	// the sustained-overload experiments (figs3) read it. Off by default:
	// the sampling ticker adds engine events, so enabling it perturbs
	// event sequence numbers (never outcomes) relative to an untracked run.
	TrackBacklog bool
	// Faults is the deterministic fault-injection schedule. The zero
	// value disables every fault and keeps the platform byte-identical to
	// a fault-free build; see faults.Config for the knobs.
	Faults faults.Config
	// Autoscale wires an elastic node group and its watermark controller
	// on top of the fixed Nodes-wide base fleet. The zero value disables
	// autoscaling and keeps the platform byte-identical to a fixed-fleet
	// build; see AutoscaleConfig for the knobs.
	Autoscale AutoscaleConfig
	// Tracer, when non-nil, records the invocation-lifecycle trace
	// (DESIGN.md §6e): every span event of every invocation, in engine
	// order, with virtual timestamps. The nil default disables tracing
	// entirely — no event values are built, nothing allocates, and the
	// simulation outcome is byte-identical to an untraced run.
	Tracer obs.Tracer
	Seed   int64
}

// Validate reports why the config cannot build a platform: it rejects a
// non-positive node count, a zero per-node capacity, an algorithm name
// outside scheduler.Names(), and an invalid fault schedule (the wrapped
// faults error names the offending field). An empty Algorithm is valid —
// the constructor defaults it to "Libra". MemRetreatAfter needs no
// validation: every value is meaningful (negative disables the retreat,
// 0 selects the default of 3 triggers, positive is the trigger count).
func (c *Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("platform: config %q needs Nodes > 0 (got %d)", c.Name, c.Nodes)
	}
	if c.NodeCap.IsZero() {
		return fmt.Errorf("platform: config %q needs a non-zero NodeCap", c.Name)
	}
	if c.Algorithm != "" {
		if _, ok := scheduler.ByName(c.Algorithm); !ok {
			return fmt.Errorf("platform: config %q names unknown algorithm %q (known: %s)",
				c.Name, c.Algorithm, strings.Join(scheduler.Names(), ", "))
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("platform: config %q: %w", c.Name, err)
	}
	if err := c.Autoscale.Validate(); err != nil {
		return fmt.Errorf("platform: config %q: %w", c.Name, err)
	}
	return nil
}

func (c *Config) defaults() {
	if c.Schedulers == 0 {
		c.Schedulers = 1
	}
	if c.Algorithm == "" {
		c.Algorithm = "Libra"
	}
	if c.Threshold == 0 {
		c.Threshold = safeguard.DefaultThreshold
	}
	if c.CoverageAlpha == 0 {
		c.CoverageAlpha = 0.9
	}
	if c.DispatchTime == 0 {
		c.DispatchTime = DefaultDispatch
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = 1
	}
	if c.MemRetreatAfter == 0 {
		c.MemRetreatAfter = 3
	}
	if c.PingInterval == 0 {
		c.PingInterval = 1
	}
	if c.Autoscale.Enabled() {
		c.Autoscale = c.Autoscale.withDefaults()
	}
}

// PhaseBreakdown accumulates per-phase latency for Fig 15.
type PhaseBreakdown struct {
	Count     int
	Frontend  float64
	Profiler  float64
	Scheduler float64
	Pool      float64
	Init      float64
	Exec      float64
}

// InvRecord pairs an invocation with its derived metrics.
type InvRecord struct {
	Inv     *cluster.Invocation
	Latency float64
	TUser   float64 // hypothetical latency under the user allocation
	Speedup float64
}

// Result is the outcome of running one trace on one platform.
type Result struct {
	Name           string
	Records        []InvRecord
	CompletionTime float64
	Samples        []metrics.UtilizationSample

	AvgCPUUtil, PeakCPUUtil float64
	AvgMemUtil, PeakMemUtil float64

	CPUIdleIntegral float64 // pooled-idle core-seconds ×1000 (millicore-s)
	MemIdleIntegral float64 // pooled-idle MB-seconds

	Safeguarded int
	Harvested   int
	Accelerated int
	ColdStarts  int

	SchedOverheads []float64 // decision compute per invocation (Fig 12c)
	Trainings      int       // one-time offline profiler trainings
	Breakdown      map[string]*PhaseBreakdown

	// Fault-injection outcome (all zero on a failure-free run).
	Faults metrics.FaultStats
	// LeakedLoans is the harvest-loan volume never reconciled by the end
	// of the run — the crash/OOM recovery invariant demands it be 0.
	LeakedLoans int64
	// CapacityViolations counts nodes whose committed resources exceeded
	// their capacity at the end of the run (invariant: always 0).
	CapacityViolations int

	// DeadlineExpired counts invocations abandoned because their
	// admission deadline passed while they were still queued (decision
	// queue, retry backoff or ready queue) — they were dropped instead of
	// executed late. Always 0 unless deadlines are ingested (live mode).
	DeadlineExpired int
	// Unplaceable counts invocations abandoned at admission because their
	// reservation exceeds the assigned scheduler's capacity slice of
	// every node shape the cluster can ever contain — work no completion,
	// recovery or scale-up could make placeable (the shard width divides
	// node capacity below the reservation). Each is also counted in
	// Faults.Abandoned, so conservation keeps closing. Nonzero means the
	// configuration over-shards the cluster for its workload.
	Unplaceable int
	// AccelSuppressed counts dispatches whose harvest acceleration was
	// withheld because the platform was in degraded mode: the invocation
	// ran under its own (possibly still harvested-from) allocation, but
	// borrowed nothing, protecting user-demand capacity under overload.
	AccelSuppressed int

	// PeakPending is the deepest the capacity-blocked ready queue ever
	// got — the backlog high-water mark under overload.
	PeakPending int
	// Backlog is the backlog time series (only when Config.TrackBacklog).
	Backlog []BacklogSample

	// Scale is the autoscale controller's outcome (zero on a fixed-fleet
	// run): decision counts, drain evictions, straggler aborts at retire,
	// and the peak cluster width.
	Scale ScaleStats
}

// BacklogSample is one point of the overload time series: how much work
// was queued, running, done and given up at virtual time T, and how wide
// the cluster was (member count; constant on fixed-fleet runs).
type BacklogSample struct {
	T         float64
	Pending   int
	Inflight  int
	Completed int
	Abandoned int
	Nodes     int
}

// Goodput is the fraction of invocations that eventually completed
// (1 when nothing was abandoned under fault injection).
func (r *Result) Goodput() float64 {
	if len(r.Records) == 0 && r.Faults.Abandoned == 0 {
		return 0
	}
	return r.Faults.Goodput(len(r.Records))
}

// Latencies extracts the response latencies.
func (r *Result) Latencies() []float64 {
	out := make([]float64, len(r.Records))
	for i, rec := range r.Records {
		out[i] = rec.Latency
	}
	return out
}

// Speedups extracts the per-invocation speedups.
func (r *Result) Speedups() []float64 {
	out := make([]float64, len(r.Records))
	for i, rec := range r.Records {
		out[i] = rec.Speedup
	}
	return out
}

// Platform is a runnable serverless platform instance.
type Platform struct {
	cfg    Config
	clk    clock.Clock
	nodes  []*cluster.Node
	shards []*scheduler.Shard
	est    profiler.Estimator

	ready      readyQueue
	inflight   map[harvest.ID]*queued
	freeQ      []*queued
	sgCounts   map[string]int // per-function safeguard triggers (OOM retreat)
	pings      map[int]*poolStatus
	pingTicker *clock.Ticker
	remaining  int
	completed  int
	result     *Result

	// Live-serving mode (StartServing): arrivals stream in open-endedly,
	// per-invocation outcomes are reported through hooks instead of being
	// accumulated in Result.Records, and the run never self-terminates.
	live      bool
	degraded  bool
	hooks     ServeHooks
	tracker   *metrics.UtilizationTracker
	nextShard int
	inj       *faults.Injector
	covIndex  *scheduler.CoverageIndex
	libras    []*scheduler.Libra

	backlogTicker *clock.Ticker

	// placeBound[i] holds shard i's capacity slice of every node shape
	// this cluster can contain (the base fleet's cap, plus the elastic
	// group's instance shape when autoscaling is armed). A reservation
	// that fits none of its shard's slices can never be admitted —
	// enqueueing it would hang a replay forever.
	placeBound [][]resources.Vector

	// Elastic node group (Config.Autoscale): baseNodes is the fixed base
	// fleet width (node IDs below it never scale away); scale is the
	// controller state, nil when autoscaling is disabled. The stat*
	// atomics mirror the controller's counters for cross-goroutine reads
	// (the serve layer's /stats); only the clock goroutine writes them.
	baseNodes       int
	scale           *scaler
	statNodes       atomic.Int64
	statDraining    atomic.Int64
	statPeakNodes   atomic.Int64
	statScaleUps    atomic.Int64
	statScaleDowns  atomic.Int64
	statDrains      atomic.Int64
	statScaleAborts atomic.Int64
	statDrainEvict  atomic.Int64

	// Test seams for the drain-equivalence property test: when set and
	// returning true they replace the watermark-gated ready queue with the
	// reference full-rescan pending list kept in the test file.
	pushHook  func(*queued) bool
	drainHook func() bool
}

// readyQueue holds capacity-blocked invocations, bucketed by (shard,
// reservation). The drain watermark is bucket-granular: all five
// algorithms succeed if and only if some node admits the reservation
// (which node differs; whether differs not), so one failed scan for a
// reservation blocks its whole bucket until the shard's epoch — bumped
// on every Release and Rebalance, the only events after which the scan
// outcome can flip — advances. Items keep a global FIFO sequence so the
// gated drain attempts exactly the Selects the full rescan would have
// attempted, in the same order; everything it skips is a provably-nil
// scan, which mutates no observable state.
type readyQueue struct {
	byShard [][]*pendBucket // indexed by shard position
	size    int
	nextSeq int64
}

// pendBucket is one (shard, reservation) class of blocked invocations in
// arrival order. items[head:] are live; popped slots are nilled and the
// storage is compacted amortizedly, so steady-state drains allocate
// nothing.
type pendBucket struct {
	user         resources.Vector
	blockedEpoch int64 // shard epoch of the last provably-futile scan
	items        []*queued
	head         int
}

func (b *pendBucket) empty() bool { return b.head >= len(b.items) }

func (b *pendBucket) push(q *queued) { b.items = append(b.items, q) }

func (b *pendBucket) pop() {
	b.items[b.head] = nil
	b.head++
	if b.head == len(b.items) {
		b.items = b.items[:0]
		b.head = 0
	} else if b.head >= 1024 && b.head*2 >= len(b.items) {
		n := copy(b.items, b.items[b.head:])
		for i := n; i < len(b.items); i++ {
			b.items[i] = nil
		}
		b.items = b.items[:n]
		b.head = 0
	}
}

// poolStatus is one node's last health-ping snapshot.
type poolStatus struct {
	cpu, mem []harvest.Entry
}

type queued struct {
	inv      *cluster.Invocation
	req      scheduler.Request
	pred     profiler.Prediction
	shard    *scheduler.Shard
	profCost float64
	attempt  int     // completed (failed) execution attempts so far
	seq      int64   // global FIFO position in the ready queue
	deadline float64 // absolute clock time after which it expires unexecuted (0 = none)
}

// New builds a platform from cfg on the given clock, or reports why the
// config is invalid (see Config.Validate). The clock is an explicit
// dependency: pass a sim.Engine for a deterministic virtual-time replay,
// or a clock.Driver for live wall-clock serving — the platform code is
// identical either way. The caller owns the clock's run loop.
func New(clk clock.Clock, cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	p := &Platform{
		cfg:       cfg,
		clk:       clk,
		inflight:  make(map[harvest.ID]*queued),
		sgCounts:  make(map[string]int),
		baseNodes: cfg.Nodes,
	}
	total := cfg.Nodes
	if cfg.Autoscale.Enabled() {
		// Group members are extra nodes above the base fleet; the boot
		// membership is the operator's Desired size. A zero group Cap
		// inherits the base instance shape.
		groupCap := cfg.Autoscale.Group.Cap
		if groupCap.IsZero() {
			groupCap = cfg.NodeCap
		}
		p.scale = &scaler{cfg: cfg.Autoscale, groupCap: groupCap}
		total += cfg.Autoscale.Group.Desired
	}
	for i := 0; i < total; i++ {
		nodeCap := cfg.NodeCap
		if i >= cfg.Nodes {
			nodeCap = p.scale.groupCap
		}
		p.nodes = append(p.nodes, cluster.NewNode(p.clk, i, nodeCap))
	}
	if cfg.PingInterval > 0 {
		p.pings = make(map[int]*poolStatus, cfg.Nodes)
		for _, n := range p.nodes {
			p.pings[n.ID()] = &poolStatus{}
		}
	}
	p.shards = scheduler.NewShards(cfg.Schedulers, p.nodes, func() scheduler.Algorithm {
		algo, _ := scheduler.ByName(cfg.Algorithm)
		if l, ok := algo.(*scheduler.Libra); ok {
			l.Alpha = cfg.CoverageAlpha
			l.VolumeOnly = cfg.VolumeOnlyCoverage
			if p.pings != nil {
				l.Status = func(n *cluster.Node) ([]harvest.Entry, []harvest.Entry) {
					st := p.pings[n.ID()]
					return st.cpu, st.mem
				}
			}
			// Coverage is whole-node state, so one incremental candidate
			// index serves every shard (§6.4).
			if p.covIndex == nil {
				p.covIndex = scheduler.NewCoverageIndex(len(p.nodes))
			}
			l.Index = p.covIndex
			p.libras = append(p.libras, l)
		}
		return algo
	})
	p.placeBound = make([][]resources.Vector, len(p.shards))
	for i, s := range p.shards {
		bounds := []resources.Vector{s.SliceOf(cfg.NodeCap)}
		if p.scale != nil && p.scale.groupCap != cfg.NodeCap {
			bounds = append(bounds, s.SliceOf(p.scale.groupCap))
		}
		p.placeBound[i] = bounds
	}
	// Node wiring happens after shard construction so the coverage index
	// (built by the scheduler factory above) exists for the live-pool
	// dirty-mark hooks.
	for _, n := range p.nodes {
		p.wireNode(n)
	}
	if cfg.Tracer != nil {
		for _, s := range p.shards {
			s.Tracer = cfg.Tracer
		}
	}
	switch cfg.Estimator {
	case EstProfiler:
		p.est = profiler.New(profiler.Config{
			Mode: cfg.ProfilerMode, Seed: cfg.Seed, HistWindow: cfg.HistWindow,
		})
	case EstWindow:
		p.est = profiler.NewWindowEstimator(5)
	case EstFreyr:
		p.est = freyr.New()
	}
	p.publishScaleGauges()
	return p, nil
}

// wireNode attaches the platform-side hooks a worker node needs —
// completion/failure callbacks, pool lend order, tracing, live-mode
// index dirty-marking. New wires the boot fleet through it and addNode
// every elastic join, so both paths produce identically-wired nodes.
func (p *Platform) wireNode(n *cluster.Node) {
	n.OnComplete = p.onComplete
	n.OnFailure = p.onFailure
	n.CPUPool.Order = p.cfg.PoolLendOrder
	n.MemPool.Order = p.cfg.PoolLendOrder
	id := n.ID()
	if tr := p.cfg.Tracer; tr != nil {
		n.Tracer = tr
		n.CPUPool.SetTracer(tr, id, "cpu")
		n.MemPool.SetTracer(tr, id, "mem")
	}
	if p.covIndex != nil && p.pings == nil {
		// Live-pool mode (negative PingInterval): decisions read pool state
		// directly, so the pools dirty-mark the index on every mutation.
		mark := func() { p.covIndex.MarkDirty(id) }
		n.CPUPool.SetIndexHook(mark)
		n.MemPool.SetIndexHook(mark)
	}
}

// Clock exposes the clock the platform runs on.
func (p *Platform) Clock() clock.Clock { return p.clk }

// Engine exposes the simulation engine when the platform runs on one
// (examples drive custom scenarios), and nil on a live clock.
func (p *Platform) Engine() *sim.Engine {
	e, _ := p.clk.(*sim.Engine)
	return e
}

// Nodes exposes the worker nodes.
func (p *Platform) Nodes() []*cluster.Node { return p.nodes }

// Run replays the trace set to completion and returns the result. It
// needs a clock that can run its queue to exhaustion synchronously — the
// sim engine, or a wall driver over a manual source (the equivalence
// tests drive one); live serving uses StartServing/Ingest instead.
func (p *Platform) Run(set trace.Set) *Result {
	runner, ok := p.clk.(clock.Runner)
	if !ok {
		panic("platform: Run needs a clock.Runner (sim engine or drainable driver); use StartServing for live clocks")
	}
	p.result = &Result{Name: p.cfg.Name, Breakdown: make(map[string]*PhaseBreakdown)}
	// Pre-size the per-invocation accumulators: at Jetstream-replay scale
	// (figs2: ≥100k invocations per platform) incremental growth of these
	// slices shows up as whole-percent run time.
	p.result.Records = make([]InvRecord, 0, len(set.Invocations))
	p.result.SchedOverheads = make([]float64, 0, len(set.Invocations))
	p.remaining = len(set.Invocations)
	p.tracker = metrics.NewUtilizationTracker(p.clk, p.nodes, p.cfg.SampleInterval)
	if p.remaining == 0 {
		p.tracker.Stop()
		return p.result
	}
	p.arm()
	for _, ti := range set.Invocations {
		ti := ti
		p.clk.At(ti.Arrival, func() { p.arrive(ti, 0) })
	}
	runner.Run()
	return p.collect()
}

// arm starts the periodic machinery every run mode needs: health pings,
// the backlog sampler, and the fault injector.
func (p *Platform) arm() {
	if p.pings != nil {
		// The scan reuses every node's entry buffers fire over fire, so
		// the steady-state ping path allocates nothing
		// (TestPingScanSteadyStateZeroAllocs pins this).
		p.pingTicker = clock.Every(p.clk, p.cfg.PingInterval, func() {
			for _, n := range p.nodes {
				if n.Down() {
					continue // a down node sends no health pings
				}
				st := p.pings[n.ID()]
				st.cpu = n.CPUPool.AppendEntries(st.cpu[:0])
				st.mem = n.MemPool.AppendEntries(st.mem[:0])
				if p.covIndex != nil {
					p.covIndex.UpdateSnapshot(n.ID(), st.cpu, st.mem)
				}
			}
		})
	}
	if p.cfg.TrackBacklog {
		p.backlogTicker = clock.Every(p.clk, p.cfg.SampleInterval, func() {
			p.result.Backlog = append(p.result.Backlog, BacklogSample{
				T: p.clk.Now(), Pending: p.ready.size, Inflight: len(p.inflight),
				Completed: p.completed, Abandoned: p.result.Faults.Abandoned,
				Nodes: p.memberCount(),
			})
		})
	}
	if p.cfg.Faults.Enabled() {
		p.inj = faults.NewInjector(p.clk, p.cfg.Faults, p.cfg.Seed, len(p.nodes), faults.Hooks{
			Crash:   p.crashNode,
			Recover: p.recoverNode,
		})
	}
	p.armScaler()
}

// collect is the shared run epilogue: fold the trackers and per-node
// integrals into the result.
func (p *Platform) collect() *Result {
	r := p.result
	r.Samples = p.tracker.Samples()
	r.AvgCPUUtil, r.PeakCPUUtil, r.AvgMemUtil, r.PeakMemUtil = p.tracker.AveragePeak(r.CompletionTime)
	for _, n := range p.nodes {
		r.CPUIdleIntegral += n.CPUPool.IdleIntegral(p.clk.Now())
		r.MemIdleIntegral += n.MemPool.IdleIntegral(p.clk.Now())
		r.ColdStarts += n.ColdStarts()
	}
	if p.cfg.Faults.Enabled() || p.cfg.Autoscale.Enabled() {
		// Post-run invariant audit: every loan reconciled, no node ever
		// left over-committed. Scale-down drains revoke loans through the
		// same machinery crashes use, so elastic runs are held to the same
		// bar as chaos runs.
		for _, n := range p.nodes {
			r.LeakedLoans += n.CPUPool.OutstandingLoans() + n.MemPool.OutstandingLoans()
			if !n.Committed().Fits(n.Capacity()) {
				r.CapacityViolations++
			}
		}
	}
	r.Scale = p.ScaleStats()
	if !p.cfg.Autoscale.Enabled() {
		r.Scale = ScaleStats{} // fixed fleet: keep the zero value exact
	}
	return r
}

// arrive is Step 2 of the workflow: the front end accepts the invocation
// and forwards it to the profiler, then to a sharding scheduler. A
// non-zero deadline is the absolute clock time past which the invocation
// is dropped instead of executed (live admission control; replays pass 0).
func (p *Platform) arrive(ti trace.Invocation, deadline float64) {
	spec, ok := function.ByName(ti.App)
	if !ok {
		panic("platform: trace names unknown app " + ti.App)
	}
	inv := &cluster.Invocation{
		ID:        harvest.ID(ti.ID),
		App:       spec,
		Input:     ti.Input,
		Actual:    spec.Demand(ti.Input),
		UserAlloc: spec.UserAlloc,
		Arrival:   p.clk.Now(),
	}
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Record(obs.Event{T: inv.Arrival, Inv: int64(inv.ID),
			Kind: obs.KindArrival, Node: -1, App: spec.Name})
	}
	if m := p.cfg.Faults.StragglerMultiplier(p.cfg.Seed, int64(ti.ID)); m > 1 {
		// Straggler injection: the execution runs a multiple of its
		// reference duration (the estimator still observes the inflated
		// value — stragglers pollute expiry estimates, as in production).
		inv.Actual.Duration *= m
		inv.Straggler = true
		p.result.Faults.Stragglers++
	}

	// Front end + profiling (Step 3).
	var pred profiler.Prediction
	profCost := 0.0
	if p.est != nil {
		var trainCost float64
		pred, trainCost = p.est.Predict(spec, ti.Input)
		profCost = profiler.PredictOverhead + trainCost
		if trainCost > 0 {
			p.result.Trainings++
		}
	} else {
		pred = profiler.Prediction{
			Demand: function.Demand{CPUPeak: spec.UserAlloc.CPU, MemPeak: spec.UserAlloc.Mem},
		}
	}
	inv.Predicted = pred.Demand

	bd := p.breakdown(spec.Name)
	bd.Count++
	bd.Frontend += FrontendOverhead
	bd.Profiler += profCost

	// Scheduling (Step 4): the front end assigns invocations to sharding
	// schedulers round-robin; each scheduler serializes its own decisions.
	q := p.newQueued()
	q.inv, q.pred, q.req, q.profCost = inv, pred, p.buildRequest(inv, pred), profCost
	q.deadline = deadline
	p.enqueue(q, p.clk.Now()+FrontendOverhead+profCost)
}

// enqueue assigns the invocation to the next sharding scheduler
// round-robin and models its decision queueing: ready is when the front
// end hands the invocation over; the scheduler picks it up once free.
// First attempts come here from arrive; failed invocations re-enter with
// a later ready time and a bumped attempt counter.
func (p *Platform) enqueue(q *queued, ready float64) {
	shard := p.shards[p.nextShard]
	p.nextShard = (p.nextShard + 1) % len(p.shards)
	q.shard = shard
	inv := q.inv

	if !p.placeable(shard.Index(), inv.Reservation()) {
		p.abandonUnplaceable(q)
		return
	}

	pick := math.Max(ready, shard.BusyUntil)
	service := DecisionOverhead + p.cfg.DispatchTime
	shard.BusyUntil = pick + service
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Record(obs.Event{T: ready, Inv: int64(inv.ID),
			Kind: obs.KindQueued, Node: -1, Val: float64(q.attempt)})
	}

	p.clk.At(shard.BusyUntil, func() {
		if q.deadline > 0 && p.clk.Now() > q.deadline {
			// The decision queue outlived the request: drop it at pickup
			// instead of spending a placement on work nobody is waiting for.
			p.expireQueued(q)
			return
		}
		inv.SchedPick = pick
		inv.SchedDone = p.clk.Now()
		if !p.live {
			p.result.SchedOverheads = append(p.result.SchedOverheads, DecisionOverhead)
		}
		if q.attempt == 0 {
			// The Fig 15 scheduling-phase breakdown counts the first
			// attempt only; retry queueing is recovery time, not overhead.
			bd := p.breakdown(inv.App.Name)
			bd.Scheduler += inv.SchedDone - inv.Arrival - FrontendOverhead - q.profCost
		}
		q.req.Now = p.clk.Now()
		if node := shard.Select(q.req, p.nodes); node != nil {
			p.dispatch(q, node)
		} else {
			p.pushPending(q)
		}
	})
}

// placeable reports whether shard i could ever admit the reservation:
// it must fit the shard's slice of at least one node shape the cluster
// can contain. Capacity released by completions, recoveries or
// scale-ups never exceeds those slices, so a false here is permanent.
func (p *Platform) placeable(i int, user resources.Vector) bool {
	for _, b := range p.placeBound[i] {
		if user.Fits(b) {
			return true
		}
	}
	return false
}

// abandonUnplaceable fails an invocation whose reservation no shard
// slice can ever hold — without this exit the work would sit on the
// ready queue forever and a replay would never terminate (the periodic
// tickers keep the event heap non-empty). It exits through the abandon
// path: counted, traced, and reported to the live Abandon hook.
func (p *Platform) abandonUnplaceable(q *queued) {
	inv := q.inv
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Record(obs.Event{T: p.clk.Now(), Inv: int64(inv.ID),
			Kind: obs.KindAbandon, Node: -1, Val: float64(q.attempt)})
	}
	p.result.Unplaceable++
	p.result.Faults.Abandoned++
	p.putQueued(q)
	if p.live {
		if p.hooks.Abandon != nil {
			p.hooks.Abandon(inv)
		}
	} else {
		p.remaining--
		if p.remaining == 0 {
			p.finish()
		}
	}
}

// buildRequest derives the scheduling request: the predicted extra demand
// beyond the user reservation (per axis) for reliable predictions.
func (p *Platform) buildRequest(inv *cluster.Invocation, pred profiler.Prediction) scheduler.Request {
	var extra resources.Vector
	if p.cfg.Harvest && pred.Reliable {
		extra = pred.Demand.Vector().Sub(inv.UserAlloc).Max(resources.Vector{})
	}
	dur := pred.Demand.Duration
	if dur <= 0 {
		dur = 1 // unreliable predictions: nominal window
	}
	return scheduler.Request{Inv: inv, Extra: extra, PredDuration: dur}
}

// dispatch is Step 5: the harvest pool on the selected node performs
// harvesting or acceleration per the prediction, then execution begins.
func (p *Platform) dispatch(q *queued, node *cluster.Node) {
	inv, pred := q.inv, q.pred
	opts := cluster.StartOptions{OwnAlloc: inv.UserAlloc}
	if p.cfg.Harvest {
		bd := p.breakdown(inv.App.Name)
		bd.Pool += PoolOpOverhead
		switch {
		case pred.Reliable:
			own := safeguard.PlanOwnAllocation(pred.Demand, inv.UserAlloc)
			if p.cfg.AggressiveHarvest {
				floor := resources.Vector{CPU: 100, Mem: function.MinMem}
				own = pred.Demand.Vector().Clamp(floor, inv.UserAlloc)
			}
			if p.cfg.MemRetreatAfter > 0 && p.sgCounts[inv.App.Name] >= p.cfg.MemRetreatAfter {
				// OOM mitigation (§5.1): this function trips the safeguard
				// too often — stop harvesting its memory.
				own.Mem = inv.UserAlloc.Mem
			}
			extra := q.req.Extra
			if p.cfg.HarvestCPUOnly {
				own.Mem = inv.UserAlloc.Mem
				extra.Mem = 0
			}
			if p.cfg.HarvestMemOnly {
				own.CPU = inv.UserAlloc.CPU
				extra.CPU = 0
			}
			opts.OwnAlloc = own
			opts.ExtraWant = extra
			initDelay := 0.0
			if node.WarmContainers(inv.App.Name) == 0 {
				initDelay = inv.App.ColdStart
			}
			if p.cfg.TimelinessBlind {
				opts.HarvestExpiry = math.Inf(1)
			} else {
				opts.HarvestExpiry = p.clk.Now() + initDelay + pred.Demand.Duration
			}
			if p.cfg.Safeguard {
				opts.SafeguardThreshold = p.cfg.Threshold
				opts.MonitorWindow = safeguard.DefaultMonitorWindow
			}
		case pred.Source == profiler.SourceWarmup:
			// Histogram profiling window: serve with maximum allocation via
			// a revocable burst grant from uncommitted capacity (§4.3.2) —
			// the true peaks become observable without crowding admissions.
			opts.BonusUpTo = function.MaxAlloc.Sub(inv.UserAlloc).Max(resources.Vector{})
		}
	}
	if p.degraded && (!opts.ExtraWant.IsZero() || !opts.BonusUpTo.IsZero()) {
		// Degraded mode sheds harvest-accelerated work first: the
		// invocation still runs, but borrows nothing, so harvested
		// capacity keeps serving user-demand reservations instead.
		opts.ExtraWant = resources.Vector{}
		opts.BonusUpTo = resources.Vector{}
		p.result.AccelSuppressed++
	}
	if p.cfg.Faults.OOMKill {
		// The memory peak is reached at a seed-derived fraction of the
		// execution; an overrunning allocation is killed at that instant
		// if the harvested remainder is out on loan (see cluster.Node).
		opts.OOMDelay = p.cfg.Faults.OOMPoint(p.cfg.Seed, int64(inv.ID)) * inv.Actual.Duration
	}
	// The invocation's shard reclaims its reservation at completion.
	p.inflight[inv.ID] = q
	node.Start(inv, opts)
}

// onComplete is Step 5's tail: collect actuals, update models, release
// the shard reservation, retry queued invocations.
func (p *Platform) onComplete(inv *cluster.Invocation) {
	if p.est != nil {
		p.est.Observe(inv.App, inv.Input, inv.Actual)
	}
	q := p.inflight[inv.ID]
	delete(p.inflight, inv.ID)
	q.shard.Release(inv.NodeID, inv.Reservation())
	p.putQueued(q)

	rec := InvRecord{Inv: inv, Latency: inv.ResponseLatency()}
	rec.TUser = (inv.ExecStart - inv.Arrival) + function.DurationUnder(inv.UserAlloc, inv.Actual)
	rec.Speedup = metrics.Speedup(rec.TUser, rec.Latency)
	if !p.live {
		// Live servers run open-endedly: retaining every record would be
		// an unbounded leak, so the serve layer aggregates via hooks.Done
		// instead and only the replay path accumulates Records.
		p.result.Records = append(p.result.Records, rec)
	}
	p.completed++
	if inv.Safeguard {
		p.result.Safeguarded++
		p.sgCounts[inv.App.Name]++
	}
	if inv.Harvested {
		p.result.Harvested++
	}
	if inv.Accelerate {
		p.result.Accelerated++
	}
	if inv.Failures > 0 {
		p.result.Faults.Recovered++
		p.result.Faults.RecoverySeconds += inv.End - inv.FirstFail
	}
	bd := p.breakdown(inv.App.Name)
	bd.Init += inv.ExecStart - inv.SchedDone
	bd.Exec += inv.End - inv.ExecStart

	if p.live {
		if p.hooks.Done != nil {
			p.hooks.Done(rec)
		}
	} else {
		p.remaining--
		if p.remaining == 0 {
			p.finish()
		}
	}
	p.drainPending()
}

// onFailure is the recovery path for an aborted execution (node crash or
// OOM kill): release the shard reservation, then re-enter the scheduler
// after a capped exponential backoff — or abandon the invocation once its
// retry budget is spent.
func (p *Platform) onFailure(inv *cluster.Invocation, kind cluster.FailureKind) {
	q := p.inflight[inv.ID]
	delete(p.inflight, inv.ID)
	q.shard.Release(inv.NodeID, inv.Reservation())
	if kind == cluster.FailOOM {
		p.result.Faults.OOMKills++
	} else {
		p.result.Faults.CrashAborts++
	}

	q.attempt++
	if q.attempt > p.cfg.Faults.Retries() {
		if p.cfg.Tracer != nil {
			p.cfg.Tracer.Record(obs.Event{T: p.clk.Now(), Inv: int64(inv.ID),
				Kind: obs.KindAbandon, Node: -1, Val: float64(q.attempt - 1)})
		}
		p.result.Faults.Abandoned++
		p.putQueued(q)
		if p.live {
			if p.hooks.Abandon != nil {
				p.hooks.Abandon(inv)
			}
		} else {
			p.remaining--
			if p.remaining == 0 {
				p.finish()
			}
		}
		return
	}
	p.result.Faults.Retries++
	delay := p.cfg.Faults.Backoff(p.cfg.Seed, int64(inv.ID), q.attempt)
	p.clk.Schedule(delay, func() { p.enqueue(q, p.clk.Now()) })
}

// crashNode is the injector's crash hook: the node aborts its in-flight
// executions and reconciles its harvest pools, every shard drops the node
// from its slice, its ping snapshot goes dark, and the aborted
// invocations enter the recovery path in ID order.
func (p *Platform) crashNode(id int) {
	aborted := p.nodes[id].Crash()
	for _, s := range p.shards {
		s.Rebalance(p.nodes)
	}
	if p.pings != nil {
		st := p.pings[id]
		st.cpu, st.mem = nil, nil
		if p.covIndex != nil {
			// The coverage index mirrors the ping snapshots; the darkened
			// snapshot drops the node from the candidate list. (Live-pool
			// mode needs nothing here: Crash reconciles the pools, and every
			// pool mutation reaches the index through its hook.)
			p.covIndex.UpdateSnapshot(id, nil, nil)
		}
	}
	for _, inv := range aborted {
		p.onFailure(inv, cluster.FailCrash)
	}
}

// recoverNode restores the repaired node's shard slices and immediately
// retries capacity-blocked invocations against the recovered capacity.
func (p *Platform) recoverNode(id int) {
	p.nodes[id].Recover()
	for _, s := range p.shards {
		s.Rebalance(p.nodes)
	}
	p.drainPending()
}

// pushPending parks a capacity-blocked invocation on the ready queue.
// The Select that just failed proves the reservation is unplaceable in
// its shard at the shard's current epoch, so the whole bucket's watermark
// tightens to that epoch — draining it again before the shard Releases or
// Rebalances would be a provably-nil scan.
func (p *Platform) pushPending(q *queued) {
	if p.pushHook != nil && p.pushHook(q) {
		return
	}
	q.seq = p.ready.nextSeq
	p.ready.nextSeq++
	si := q.shard.Index()
	for len(p.ready.byShard) <= si {
		p.ready.byShard = append(p.ready.byShard, nil)
	}
	user := q.inv.Reservation()
	var b *pendBucket
	for _, c := range p.ready.byShard[si] {
		if c.user == user {
			b = c
			break
		}
	}
	if b == nil {
		b = &pendBucket{user: user}
		p.ready.byShard[si] = append(p.ready.byShard[si], b)
	}
	b.blockedEpoch = q.shard.Epoch()
	b.push(q)
	p.ready.size++
	if p.result != nil && p.ready.size > p.result.PeakPending {
		p.result.PeakPending = p.ready.size
	}
}

// drainPending retries capacity-blocked invocations in FIFO order. It is
// dispatch-for-dispatch identical to rescanning the whole pending list —
// the sequence of attempted Selects is the same — but it skips every scan
// the watermarks prove nil: a bucket is eligible only when its shard's
// epoch advanced past the bucket's last failed scan AND the shard's slack
// maxima could cover the reservation. Within one pass commits only shrink
// slack and never bump the epoch, so a bucket blocked mid-pass stays
// provably blocked for the rest of the pass.
func (p *Platform) drainPending() {
	if p.drainHook != nil && p.drainHook() {
		return
	}
	if p.ready.size == 0 {
		return
	}
	now := p.clk.Now()
	for {
		var best *pendBucket
		var bestShard *scheduler.Shard
		for si, buckets := range p.ready.byShard {
			sh := p.shards[si]
			ep := sh.Epoch()
			for _, b := range buckets {
				if b.empty() || b.blockedEpoch >= ep {
					continue
				}
				if !sh.MightFit(b.user) {
					b.blockedEpoch = ep
					continue
				}
				if best == nil || b.items[b.head].seq < best.items[best.head].seq {
					best, bestShard = b, sh
				}
			}
		}
		if best == nil {
			return
		}
		q := best.items[best.head]
		if q.deadline > 0 && now > q.deadline {
			best.pop()
			p.ready.size--
			p.expireQueued(q)
			continue
		}
		q.req.Now = now
		if node := bestShard.Select(q.req, p.nodes); node != nil {
			best.pop()
			p.ready.size--
			p.dispatch(q, node)
		} else {
			best.blockedEpoch = bestShard.Epoch()
		}
	}
}

// expireQueued abandons an invocation whose deadline passed before it
// reached a node: it is dropped from wherever it was queued, reported
// through the Expired hook (live) or counted toward completion (replay),
// and never charged a placement. Executing invocations are not expired —
// work already on a node runs to completion.
func (p *Platform) expireQueued(q *queued) {
	inv := q.inv
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Record(obs.Event{T: p.clk.Now(), Inv: int64(inv.ID),
			Kind: obs.KindDeadline, Node: -1, Val: float64(q.attempt)})
	}
	p.result.DeadlineExpired++
	p.putQueued(q)
	if p.live {
		if p.hooks.Expired != nil {
			p.hooks.Expired(inv)
		} else if p.hooks.Abandon != nil {
			p.hooks.Abandon(inv)
		}
		return
	}
	p.remaining--
	if p.remaining == 0 {
		p.finish()
	}
}

// ExpireOverdue sweeps the capacity-blocked ready queue and expires every
// invocation whose deadline has passed, returning how many were dropped.
// The pickup and drain paths already refuse to execute overdue work; this
// sweep adds timeliness — a blocked invocation's waiter hears about the
// expiry when the deadline passes, not when capacity next frees up. The
// serve layer calls it on a reaper ticker; it must run on the clock's
// callback goroutine.
func (p *Platform) ExpireOverdue() int {
	if p.ready.size == 0 {
		return 0
	}
	now := p.clk.Now()
	n := 0
	for _, buckets := range p.ready.byShard {
		for _, b := range buckets {
			live := b.items[:b.head]
			for _, q := range b.items[b.head:] {
				if q.deadline > 0 && now > q.deadline {
					p.ready.size--
					n++
					p.expireQueued(q)
				} else {
					live = append(live, q)
				}
			}
			for i := len(live); i < len(b.items); i++ {
				b.items[i] = nil
			}
			b.items = live
		}
	}
	return n
}

// SetDegraded toggles overload-degraded dispatch: while set, new
// placements receive no harvest acceleration (no borrowed extras, no
// profiling-window burst grants), so harvested capacity protects
// user-demand reservations. The serve layer drives it from ready-queue
// watermarks. Must be called on the clock's callback goroutine.
func (p *Platform) SetDegraded(v bool) { p.degraded = v }

// Degraded reports whether degraded dispatch is active.
func (p *Platform) Degraded() bool { return p.degraded }

// finish closes out the run once every invocation completed or was
// abandoned: it freezes the clock-dependent trackers and stops the fault
// injector so the event queue can drain.
func (p *Platform) finish() {
	p.result.CompletionTime = p.clk.Now()
	p.tracker.Stop()
	p.stopPing()
	p.stopScaler()
	if p.backlogTicker != nil {
		p.backlogTicker.Stop()
	}
	if p.inj != nil {
		p.inj.Stop()
		p.result.Faults.Crashes = p.inj.Crashes()
		p.result.Faults.NodeRepairs = p.inj.Recoveries()
		p.result.Faults.NodeDowntime = p.inj.Downtime()
	}
}

// stopPing halts the health-ping ticker so the event queue can drain.
func (p *Platform) stopPing() {
	if p.pingTicker != nil {
		p.pingTicker.Stop()
	}
}

// newQueued returns a fresh or recycled scheduling record.
func (p *Platform) newQueued() *queued {
	if k := len(p.freeQ); k > 0 {
		q := p.freeQ[k-1]
		p.freeQ[k-1] = nil
		p.freeQ = p.freeQ[:k-1]
		return q
	}
	return &queued{}
}

// putQueued resets and parks a scheduling record once its invocation
// completed or was abandoned (retries keep their record).
func (p *Platform) putQueued(q *queued) {
	*q = queued{}
	p.freeQ = append(p.freeQ, q)
}

func (p *Platform) breakdown(app string) *PhaseBreakdown {
	bd, ok := p.result.Breakdown[app]
	if !ok {
		bd = &PhaseBreakdown{}
		p.result.Breakdown[app] = bd
	}
	return bd
}

// ServeHooks are the live-serving callbacks: Done fires when an
// invocation completes, Abandon when its retry budget is spent. Both run
// on the clock's callback goroutine, in event order — implementations
// must not block (hand off to channels for cross-goroutine delivery).
type ServeHooks struct {
	Done    func(rec InvRecord)
	Abandon func(inv *cluster.Invocation)
	// Expired fires when a queued invocation's deadline passes before
	// execution; nil falls back to Abandon.
	Expired func(inv *cluster.Invocation)
}

// StartServing switches the platform into live-serving mode and arms the
// periodic machinery (health pings, backlog sampler, fault injector).
// Arrivals then stream in through Ingest; per-invocation outcomes are
// delivered through hooks instead of accumulating in memory, so a server
// can run indefinitely. Must be called on the clock's goroutine (or
// before its loop starts).
func (p *Platform) StartServing(hooks ServeHooks) {
	if p.live {
		panic("platform: StartServing called twice")
	}
	p.live = true
	p.hooks = hooks
	p.result = &Result{Name: p.cfg.Name, Breakdown: make(map[string]*PhaseBreakdown)}
	p.tracker = metrics.NewUtilizationTracker(p.clk, p.nodes, p.cfg.SampleInterval)
	p.arm()
}

// Ingest accepts one invocation arriving now. It is the live analogue of
// a trace arrival event: front end, profiler, scheduler shard, node —
// the exact watermark-gated pipeline the replay path uses. The id must
// be unique for the server's lifetime (the serve layer hands out a
// monotone sequence). Must run on the clock's callback goroutine.
func (p *Platform) Ingest(id int64, app string, input function.Input) error {
	return p.IngestDeadline(id, app, input, 0)
}

// IngestDeadline is Ingest with an absolute clock-time deadline: if the
// invocation is still queued (decision queue, retry backoff or ready
// queue) when the clock passes deadline, it is dropped and reported
// through the Expired hook instead of being executed late. A zero
// deadline means none.
func (p *Platform) IngestDeadline(id int64, app string, input function.Input, deadline float64) error {
	if !p.live {
		return fmt.Errorf("platform: Ingest outside live-serving mode")
	}
	if _, ok := function.ByName(app); !ok {
		return fmt.Errorf("platform: unknown function %q", app)
	}
	p.arrive(trace.Invocation{ID: id, App: app, Input: input, Arrival: p.clk.Now()}, deadline)
	return nil
}

// InFlight returns how many accepted invocations have not completed or
// been abandoned yet (scheduler queues + ready queue + executing).
func (p *Platform) InFlight() int { return len(p.inflight) + p.ready.size }

// Completed returns how many invocations have completed so far.
func (p *Platform) Completed() int { return p.completed }

// PendingReady returns the current capacity-blocked ready-queue depth.
func (p *Platform) PendingReady() int { return p.ready.size }

// StopServing freezes the periodic machinery and returns the aggregate
// result of the serving session (Records stays empty — the hooks
// reported per-invocation outcomes as they happened). In-flight
// invocations are not waited for; callers drain by watching InFlight
// before stopping. Must run on the clock's callback goroutine, or after
// its loop has fully stopped.
func (p *Platform) StopServing() *Result {
	if !p.live {
		panic("platform: StopServing without StartServing")
	}
	p.finish()
	return p.collect()
}
