package platform

import (
	"fmt"
	"math"

	"libra/internal/clock"
	"libra/internal/cluster"
	"libra/internal/obs"
	"libra/internal/resources"
)

// Autoscale defaults applied by AutoscaleConfig.withDefaults.
const (
	// DefaultScaleInterval is the controller's evaluation period in
	// (virtual or wall) seconds.
	DefaultScaleInterval = 1.0
	// DefaultScaleCooldown is the minimum spacing between scale
	// decisions, damping oscillation on top of the watermark hysteresis.
	DefaultScaleCooldown = 5.0
	// DefaultUtilHi / DefaultUtilLo are the reservation-pressure
	// watermarks (committed / capacity over admittable nodes).
	DefaultUtilHi = 0.85
	DefaultUtilLo = 0.35
	// DefaultDrainGrace bounds a scale-down drain: a draining node whose
	// stragglers outlive the grace is retired anyway (they abort into the
	// crash-recovery retry path, loans reconciled).
	DefaultDrainGrace = 30.0
)

// AutoscaleConfig wires an elastic node group and its watermark
// controller into a platform. The zero value disables autoscaling
// entirely — the cluster is the fixed Nodes-wide fleet and the platform
// behaves byte-for-byte as before this subsystem existed.
//
// The controller follows the hysteresis discipline of the serve layer's
// degraded mode: scale-up triggers on the *hi* watermarks (ready-queue
// backlog at or above BacklogHi, or reservation pressure at or above
// UtilHi), scale-down only when *both* lo watermarks hold (backlog at or
// below BacklogLo and pressure at or below UtilLo), and Cooldown spaces
// consecutive decisions. Scale-down never removes capacity abruptly: the
// victim node is drained first — no new admissions, warm containers
// evicted — and retired when it empties or DrainGrace elapses, with any
// stragglers aborted through the same crash-abort/ReleaseAll machinery a
// node crash uses, so no harvest loan outlives the capacity it lives on.
type AutoscaleConfig struct {
	// Group is the elastic node group (min/max/desired size, instance
	// shape). Group member IDs start at Config.Nodes: the first Nodes
	// nodes are the fixed base fleet, members come and go above them.
	// An unset Group disables the controller.
	Group cluster.NodeGroup
	// Interval is the controller evaluation period in seconds (default
	// DefaultScaleInterval).
	Interval float64
	// Cooldown is the minimum time between scale decisions (default
	// DefaultScaleCooldown).
	Cooldown float64
	// BacklogHi is the ready-queue depth that triggers scale-up (default
	// 1: any capacity-blocked invocation is demand the fleet cannot
	// place). BacklogLo is the depth at or below which scale-down is
	// considered (default 0).
	BacklogHi int
	BacklogLo int
	// UtilHi / UtilLo are the reservation-pressure watermarks: committed
	// over capacity across admittable nodes, the worse of the two axes.
	// Defaults DefaultUtilHi / DefaultUtilLo.
	UtilHi float64
	UtilLo float64
	// StepUp / StepDown bound how many nodes one decision adds or drains
	// (default 1 each).
	StepUp   int
	StepDown int
	// DrainGrace is the longest a draining node waits for stragglers
	// before retiring anyway (default DefaultDrainGrace).
	DrainGrace float64
}

// Enabled reports whether the controller is configured.
func (c AutoscaleConfig) Enabled() bool { return c.Group.Enabled() }

// Validate reports the first invalid field by name. The zero config is
// valid (autoscaling disabled).
func (c AutoscaleConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if err := c.Group.Validate(); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Interval", c.Interval}, {"Cooldown", c.Cooldown},
		{"UtilHi", c.UtilHi}, {"UtilLo", c.UtilLo}, {"DrainGrace", c.DrainGrace},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("platform: autoscale %s must be finite and non-negative (got %g)", f.name, f.v)
		}
	}
	if c.BacklogHi < 0 || c.BacklogLo < 0 {
		return fmt.Errorf("platform: autoscale backlog watermarks must be non-negative (got hi=%d lo=%d)", c.BacklogHi, c.BacklogLo)
	}
	if c.StepUp < 0 || c.StepDown < 0 {
		return fmt.Errorf("platform: autoscale steps must be non-negative (got up=%d down=%d)", c.StepUp, c.StepDown)
	}
	r := c.withDefaults()
	if r.BacklogLo >= r.BacklogHi {
		return fmt.Errorf("platform: autoscale BacklogLo (%d) must stay below BacklogHi (%d)", r.BacklogLo, r.BacklogHi)
	}
	if r.UtilLo >= r.UtilHi {
		return fmt.Errorf("platform: autoscale UtilLo (%g) must stay below UtilHi (%g)", r.UtilLo, r.UtilHi)
	}
	if r.UtilHi > 1 {
		return fmt.Errorf("platform: autoscale UtilHi must be at most 1 (got %g)", r.UtilHi)
	}
	return nil
}

// withDefaults resolves the zero-value sentinels.
func (c AutoscaleConfig) withDefaults() AutoscaleConfig {
	c.Group = c.Group.WithDefaults()
	if c.Interval == 0 {
		c.Interval = DefaultScaleInterval
	}
	if c.Cooldown == 0 {
		c.Cooldown = DefaultScaleCooldown
	}
	if c.BacklogHi == 0 {
		c.BacklogHi = 1
	}
	if c.UtilHi == 0 {
		c.UtilHi = DefaultUtilHi
	}
	if c.UtilLo == 0 {
		c.UtilLo = DefaultUtilLo
	}
	if c.StepUp == 0 {
		c.StepUp = 1
	}
	if c.StepDown == 0 {
		c.StepDown = 1
	}
	if c.DrainGrace == 0 {
		c.DrainGrace = DefaultDrainGrace
	}
	return c
}

// scaler is the controller's runtime state. All fields live on the
// clock's callback goroutine, like every other piece of platform state.
type scaler struct {
	cfg        AutoscaleConfig
	groupCap   resources.Vector // resolved instance shape of group members
	ticker     *clock.Ticker
	lastScale  float64
	drainStart []float64 // by node ID; NaN when not draining
}

// ScaleStats is the controller's public counter snapshot, safe to read
// from any goroutine (backed by atomics the loop updates).
type ScaleStats struct {
	// Nodes is the current member count (base fleet + live group
	// members, draining included, retired excluded).
	Nodes int64 `json:"nodes"`
	// Draining is how many members are currently draining out.
	Draining int64 `json:"nodes_draining"`
	// PeakNodes is the widest the cluster ever got.
	PeakNodes int64 `json:"peak_nodes"`
	// ScaleUps / ScaleDowns count controller decisions that added /
	// retired a node. Drains count how many drains began (a canceled-by-
	// crash drain still counts); ScaleAborts counts stragglers aborted at
	// retire; DrainEvictions counts warm containers evicted by drains.
	ScaleUps       int64 `json:"scale_ups"`
	ScaleDowns     int64 `json:"scale_downs"`
	Drains         int64 `json:"drains"`
	ScaleAborts    int64 `json:"scale_aborts"`
	DrainEvictions int64 `json:"drain_evictions"`
}

// ScaleStats returns the controller counters; zero value when
// autoscaling is disabled (Nodes still reports the fixed fleet width).
func (p *Platform) ScaleStats() ScaleStats {
	return ScaleStats{
		Nodes:          p.statNodes.Load(),
		Draining:       p.statDraining.Load(),
		PeakNodes:      p.statPeakNodes.Load(),
		ScaleUps:       p.statScaleUps.Load(),
		ScaleDowns:     p.statScaleDowns.Load(),
		Drains:         p.statDrains.Load(),
		ScaleAborts:    p.statScaleAborts.Load(),
		DrainEvictions: p.statDrainEvict.Load(),
	}
}

// memberCount returns how many nodes currently belong to the cluster
// (everything not retired; down and draining nodes still count — their
// capacity has not left yet).
func (p *Platform) memberCount() int {
	n := 0
	for _, node := range p.nodes {
		if !node.Retired() {
			n++
		}
	}
	return n
}

// groupMembers returns (live group members, draining among them). Group
// members are the nodes with ID ≥ cfg.Nodes.
func (p *Platform) groupMembers() (members, draining int) {
	for _, n := range p.nodes[p.baseNodes:] {
		if n.Retired() {
			continue
		}
		members++
		if n.Draining() {
			draining++
		}
	}
	return members, draining
}

// publishScaleGauges refreshes the membership gauges after any
// membership change (and at arm time).
func (p *Platform) publishScaleGauges() {
	members := int64(p.memberCount())
	p.statNodes.Store(members)
	if members > p.statPeakNodes.Load() {
		p.statPeakNodes.Store(members)
	}
	draining := int64(0)
	for _, n := range p.nodes {
		if n.Draining() && !n.Retired() {
			draining++
		}
	}
	p.statDraining.Store(draining)
}

// armScaler boots the controller: the desired group members were already
// created by New, so this only starts the evaluation ticker.
func (p *Platform) armScaler() {
	if !p.cfg.Autoscale.Enabled() {
		return
	}
	s := p.scale
	s.ticker = clock.Every(p.clk, s.cfg.Interval, p.scaleTick)
	// Allow a first decision after one full cooldown from boot: the boot
	// size is Desired, which the operator chose — reacting faster than
	// the damping interval would second-guess it.
	s.lastScale = p.clk.Now()
}

// reservationPressure is the utilization signal: committed over capacity
// across admittable nodes, the worse of the two axes. Committed (not
// instantaneous usage) is what admission blocks on, so it is the signal
// that predicts backlog formation.
func (p *Platform) reservationPressure() float64 {
	var committed, capacity resources.Vector
	for _, n := range p.nodes {
		if n.Down() || n.Draining() || n.Retired() {
			continue
		}
		committed = committed.Add(n.Committed())
		capacity = capacity.Add(n.Capacity())
	}
	pressure := 0.0
	if capacity.CPU > 0 {
		pressure = float64(committed.CPU) / float64(capacity.CPU)
	}
	if capacity.Mem > 0 {
		if m := float64(committed.Mem) / float64(capacity.Mem); m > pressure {
			pressure = m
		}
	}
	return pressure
}

// scaleTick is one controller evaluation. It runs on the clock's
// callback goroutine every Interval: finish drains whose nodes emptied
// (or whose grace elapsed), then compare the backlog and reservation-
// pressure signals against the watermarks and move the group size.
func (p *Platform) scaleTick() {
	s := p.scale
	now := p.clk.Now()

	// Phase 1: advance drains. Iterate the dense node slice (never a
	// map) so the retire order is deterministic.
	for _, n := range p.nodes {
		if !n.Draining() || n.Retired() {
			continue
		}
		grace := len(s.drainStart) > int(n.ID()) && now-s.drainStart[n.ID()] >= s.cfg.DrainGrace
		if n.Down() || n.Running() == 0 || grace {
			p.retireNode(n.ID())
		}
	}

	// Phase 2: scale decision, cooldown-damped.
	if now-s.lastScale < s.cfg.Cooldown {
		return
	}
	backlog := p.ready.size
	pressure := p.reservationPressure()
	members, draining := p.groupMembers()

	if backlog >= s.cfg.BacklogHi || pressure >= s.cfg.UtilHi {
		add := s.cfg.StepUp
		if room := s.cfg.Group.Max - members; add > room {
			add = room
		}
		if add <= 0 {
			return
		}
		for i := 0; i < add; i++ {
			p.addNode()
		}
		s.lastScale = now
		p.drainPending() // blocked work retries against the new capacity
		return
	}

	if backlog <= s.cfg.BacklogLo && pressure <= s.cfg.UtilLo {
		// Draining members still count toward the floor: they are already
		// on the way out, so only the admittable surplus may drain.
		surplus := members - draining - s.cfg.Group.Min
		drop := s.cfg.StepDown
		if drop > surplus {
			drop = surplus
		}
		if drop <= 0 {
			return
		}
		for i := 0; i < drop; i++ {
			p.drainHighestMember()
		}
		s.lastScale = now
	}
}

// addNode grows the cluster by one group member: a parked (retired) node
// is revived first — keeping node IDs dense and bounded by peak
// membership — else a fresh node is constructed and wired into every
// subsystem that assumed fixed membership: scheduler shards (Rebalance
// assigns its capacity slice and bumps epochs), the coverage index, the
// health-ping table, the utilization tracker and the fault injector.
func (p *Platform) addNode() *cluster.Node {
	var n *cluster.Node
	for _, cand := range p.nodes[p.baseNodes:] {
		if cand.Retired() {
			n = cand
			n.Unretire()
			break
		}
	}
	if n == nil {
		id := len(p.nodes)
		n = cluster.NewNode(p.clk, id, p.scale.groupCap)
		// wireNode mirrors New's hook-up exactly.
		p.wireNode(n)
		p.nodes = append(p.nodes, n)
		if p.pings != nil {
			p.pings[id] = &poolStatus{}
		}
		if p.covIndex != nil {
			// Size the index now (empty pools: off the candidate list).
			p.covIndex.UpdateSnapshot(id, nil, nil)
		}
		if p.inj != nil {
			p.inj.AddNode(id)
		}
	}
	for _, sh := range p.shards {
		sh.Rebalance(p.nodes)
	}
	if p.tracker != nil {
		p.tracker.Extend(n)
		p.refreshTrackerCapacity()
	}
	p.statScaleUps.Add(1)
	p.publishScaleGauges()
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Record(obs.Event{T: p.clk.Now(), Inv: -1, Kind: obs.KindScaleUp,
			Node: n.ID(), Val: float64(p.memberCount())})
	}
	return n
}

// drainHighestMember begins a scale-down drain on the highest-ID
// admittable group member: it stops admitting immediately (Rebalance
// zeroes its shard slices), its warm pool is evicted, and scaleTick
// retires it once it empties or its grace elapses.
func (p *Platform) drainHighestMember() {
	for i := len(p.nodes) - 1; i >= p.baseNodes; i-- {
		n := p.nodes[i]
		if n.Retired() || n.Draining() || n.Down() {
			continue
		}
		evicted := n.Drain()
		for len(p.scale.drainStart) <= i {
			p.scale.drainStart = append(p.scale.drainStart, 0)
		}
		p.scale.drainStart[i] = p.clk.Now()
		for _, sh := range p.shards {
			sh.Rebalance(p.nodes)
		}
		p.statDrains.Add(1)
		p.statDrainEvict.Add(int64(evicted))
		p.publishScaleGauges()
		if p.cfg.Tracer != nil {
			p.cfg.Tracer.Record(obs.Event{T: p.clk.Now(), Inv: -1, Kind: obs.KindScaleDrain,
				Node: n.ID(), Val: float64(evicted)})
		}
		return
	}
}

// retireNode completes a scale-down: the node leaves the cluster. Any
// stragglers abort through the crash machinery — loans revoked via
// ReleaseAll, reservations returned — and re-enter the scheduler on the
// crash-recovery retry path in ID order, exactly like crashNode's
// reconciliation. The node parks for reuse by a later scale-up.
func (p *Platform) retireNode(id int) {
	n := p.nodes[id]
	aborted := n.Retire()
	for _, sh := range p.shards {
		sh.Rebalance(p.nodes)
	}
	if p.pings != nil {
		st := p.pings[id]
		st.cpu, st.mem = nil, nil
	}
	if p.covIndex != nil {
		// Retire reconciled the pools; darken the summary either way so
		// ping-mode candidates drop the node immediately.
		p.covIndex.UpdateSnapshot(id, nil, nil)
	}
	if p.tracker != nil {
		p.refreshTrackerCapacity()
	}
	p.statScaleDowns.Add(1)
	p.statScaleAborts.Add(int64(len(aborted)))
	p.publishScaleGauges()
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Record(obs.Event{T: p.clk.Now(), Inv: -1, Kind: obs.KindScaleDown,
			Node: id, Val: float64(p.memberCount())})
	}
	for _, inv := range aborted {
		p.onFailure(inv, cluster.FailCrash)
	}
}

// refreshTrackerCapacity points the utilization denominator at the
// current membership: retired capacity has left the cluster.
func (p *Platform) refreshTrackerCapacity() {
	var capCPU, capMem float64
	for _, n := range p.nodes {
		if n.Retired() {
			continue
		}
		c := n.Capacity()
		capCPU += c.CPU.Cores()
		capMem += float64(c.Mem)
	}
	p.tracker.SetCapacity(capCPU, capMem)
}

// stopScaler halts the controller ticker so the event queue can drain.
func (p *Platform) stopScaler() {
	if p.scale != nil && p.scale.ticker != nil {
		p.scale.ticker.Stop()
	}
}
