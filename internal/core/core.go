// Package core is the top-level facade of the Libra reproduction: a
// small, stable API for running serverless workloads through the six
// platform variants of the paper (§8.3) on simulated clusters, without
// touching the lower-level packages. The examples and cmd/libra-sim are
// built exclusively on this surface.
//
//	report, err := core.Run(core.Config{
//		Variant: core.VariantLibra,
//		Testbed: core.TestbedSingleNode,
//		Seed:    1,
//	}, trace.SingleSet(1))
package core

import (
	"encoding/json"
	"fmt"

	"libra/internal/clock"
	"libra/internal/faults"
	"libra/internal/metrics"
	"libra/internal/obs"
	"libra/internal/platform"
	"libra/internal/sim"
	"libra/internal/trace"
)

// Variant names one of the paper's six platform configurations.
type Variant string

// The six §8.3 platforms.
const (
	VariantDefault  Variant = "default"
	VariantFreyr    Variant = "freyr"
	VariantLibra    Variant = "libra"
	VariantLibraNS  Variant = "libra-ns"
	VariantLibraNP  Variant = "libra-np"
	VariantLibraNSP Variant = "libra-nsp"
)

// Variants lists all supported variants in the paper's order.
func Variants() []Variant {
	return []Variant{VariantDefault, VariantFreyr, VariantLibra, VariantLibraNS, VariantLibraNP, VariantLibraNSP}
}

// Testbed names one of the paper's cluster geometries (§8.2.1).
type Testbed string

// The three §8.2.1 testbeds.
const (
	TestbedSingleNode Testbed = "single" // 1 × 72 cores / 72 GB
	TestbedMultiNode  Testbed = "multi"  // 4 × 32 cores / 32 GB
	TestbedJetstream  Testbed = "jetstream"
)

// Config selects a platform variant and cluster geometry.
type Config struct {
	Variant Variant
	Testbed Testbed
	// Nodes overrides the testbed's node count (Jetstream experiments
	// sweep 10–50).
	Nodes int
	// Schedulers overrides the decentralized sharding degree.
	Schedulers int
	// Algorithm overrides the scheduling algorithm ("Default", "RR",
	// "JSQ", "MWS", "Libra"). Empty keeps the variant's default.
	Algorithm string
	// SafeguardThreshold overrides the 0.8 default (§8.8).
	SafeguardThreshold float64
	// CoverageWeight overrides the demand-coverage α = 0.9 (§8.8).
	CoverageWeight float64
	// Faults is the deterministic fault-injection schedule (node crashes,
	// OOM kills, stragglers). The zero value disables every fault.
	Faults faults.Config
	// Autoscale wires an elastic node group and its watermark controller
	// on top of the testbed's fixed base fleet. The zero value keeps the
	// cluster static.
	Autoscale platform.AutoscaleConfig
	Seed      int64
	// Tracer, when non-nil, receives the run's invocation-lifecycle
	// events (DESIGN.md §6e). nil disables tracing with zero overhead.
	Tracer obs.Tracer
}

func (c Config) platformConfig() (platform.Config, error) {
	tb := platform.SingleNode()
	switch c.Testbed {
	case TestbedSingleNode, "":
		tb = platform.SingleNode()
	case TestbedMultiNode:
		tb = platform.MultiNode()
	case TestbedJetstream:
		n := c.Nodes
		if n == 0 {
			n = 50
		}
		k := c.Schedulers
		if k == 0 {
			k = 4
		}
		tb = platform.Jetstream(n, k)
	default:
		return platform.Config{}, fmt.Errorf("core: unknown testbed %q", c.Testbed)
	}
	if c.Nodes > 0 {
		tb.Nodes = c.Nodes
	}
	if c.Schedulers > 0 {
		tb.Schedulers = c.Schedulers
	}
	var cfg platform.Config
	switch c.Variant {
	case VariantDefault:
		cfg = platform.PresetDefault(tb, c.Seed)
	case VariantFreyr:
		cfg = platform.PresetFreyr(tb, c.Seed)
	case VariantLibra, "":
		cfg = platform.PresetLibra(tb, c.Seed)
	case VariantLibraNS:
		cfg = platform.PresetLibraNS(tb, c.Seed)
	case VariantLibraNP:
		cfg = platform.PresetLibraNP(tb, c.Seed)
	case VariantLibraNSP:
		cfg = platform.PresetLibraNSP(tb, c.Seed)
	default:
		return platform.Config{}, fmt.Errorf("core: unknown variant %q", c.Variant)
	}
	if c.Algorithm != "" {
		cfg = platform.WithAlgorithm(cfg, c.Algorithm)
		cfg.Name = string(c.Variant) + "/" + c.Algorithm
	}
	if c.SafeguardThreshold > 0 {
		cfg.Threshold = c.SafeguardThreshold
	}
	if c.CoverageWeight > 0 {
		cfg.CoverageAlpha = c.CoverageWeight
	}
	if err := c.Faults.Validate(); err != nil {
		return platform.Config{}, err
	}
	cfg.Faults = c.Faults
	cfg.Autoscale = c.Autoscale
	cfg.Tracer = c.Tracer
	return cfg, nil
}

// PlatformConfig resolves the selection into the low-level platform
// configuration. The serve layer uses it to apply live-specific knobs
// (dispatch time, shard width) before constructing the platform itself.
func (c Config) PlatformConfig() (platform.Config, error) { return c.platformConfig() }

// Report is the metric summary of one run.
type Report struct {
	Name        string  `json:"name"`
	Invocations int     `json:"invocations"`
	LatencyP50  float64 `json:"latency_p50"`
	LatencyP99  float64 `json:"latency_p99"`
	LatencyMean float64 `json:"latency_mean"`
	SpeedupMin  float64 `json:"speedup_min"`
	SpeedupP50  float64 `json:"speedup_p50"`
	SpeedupMax  float64 `json:"speedup_max"`
	Completion  float64 `json:"completion_time"`
	AvgCPUUtil  float64 `json:"avg_cpu_util"`
	AvgMemUtil  float64 `json:"avg_mem_util"`
	PeakCPUUtil float64 `json:"peak_cpu_util"`
	Harvested   int     `json:"harvested"`
	Accelerated int     `json:"accelerated"`
	Safeguarded int     `json:"safeguarded"`
	ColdStarts  int     `json:"cold_starts"`
	// Fault-injection outcomes; all zero (and omitted) on failure-free runs.
	Crashes   int `json:"crashes,omitempty"`
	OOMKills  int `json:"oom_kills,omitempty"`
	Retries   int `json:"retries,omitempty"`
	Abandoned int `json:"abandoned,omitempty"`
	// Autoscale outcomes; all zero (and omitted) on fixed-fleet runs.
	ScaleUps   int64 `json:"scale_ups,omitempty"`
	ScaleDowns int64 `json:"scale_downs,omitempty"`
	PeakNodes  int64 `json:"peak_nodes,omitempty"`
}

// Clock is the time substrate a platform runs on, re-exported from
// internal/clock: sim.NewEngine() gives the deterministic virtual-time
// replay, clock.NewWallDriver() the live wall-clock driver, and
// clock.NewDriver(clock.NewManualSource()) a wall driver under mocked
// time for deterministic live-path tests.
type Clock = clock.Clock

// Run replays a workload on the configured platform under a fresh
// private simulation engine — the deterministic path every experiment
// uses.
func Run(cfg Config, workload trace.Set) (*Report, error) {
	return RunOn(sim.NewEngine(), cfg, workload)
}

// RunOn replays a workload on the configured platform under an explicit
// clock. The clock must be able to drain its queue synchronously (a
// clock.Runner): the sim engine, or a wall driver over a manual source —
// which is how the sim/live equivalence tests drive the wall path.
func RunOn(clk Clock, cfg Config, workload trace.Set) (*Report, error) {
	pc, err := cfg.platformConfig()
	if err != nil {
		return nil, err
	}
	p, err := platform.New(clk, pc)
	if err != nil {
		return nil, err
	}
	r := p.Run(workload)
	lat := metrics.Summarize(r.Latencies())
	sp := metrics.Summarize(r.Speedups())
	return &Report{
		Name:        pc.Name,
		Invocations: len(r.Records),
		LatencyP50:  lat.P50,
		LatencyP99:  lat.P99,
		LatencyMean: lat.Mean,
		SpeedupMin:  sp.Min,
		SpeedupP50:  sp.P50,
		SpeedupMax:  sp.Max,
		Completion:  r.CompletionTime,
		AvgCPUUtil:  r.AvgCPUUtil,
		AvgMemUtil:  r.AvgMemUtil,
		PeakCPUUtil: r.PeakCPUUtil,
		Harvested:   r.Harvested,
		Accelerated: r.Accelerated,
		Safeguarded: r.Safeguarded,
		ColdStarts:  r.ColdStarts,
		Crashes:     r.Faults.Crashes,
		OOMKills:    r.Faults.OOMKills,
		Retries:     r.Faults.Retries,
		Abandoned:   r.Faults.Abandoned,
		ScaleUps:    r.Scale.ScaleUps,
		ScaleDowns:  r.Scale.ScaleDowns,
		PeakNodes:   r.Scale.PeakNodes,
	}, nil
}

// Compare runs the same workload through several variants with otherwise
// identical configuration.
func Compare(base Config, workload trace.Set, variants ...Variant) ([]*Report, error) {
	if len(variants) == 0 {
		variants = Variants()
	}
	out := make([]*Report, 0, len(variants))
	for _, v := range variants {
		cfg := base
		cfg.Variant = v
		rep, err := Run(cfg, workload)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

func (r *Report) String() string {
	return fmt.Sprintf("%s: n=%d p50=%.1fs p99=%.1fs done=%.0fs cpu=%.0f%% speedup[min %.2f, p50 %.2f, max %.2f]",
		r.Name, r.Invocations, r.LatencyP50, r.LatencyP99, r.Completion,
		r.AvgCPUUtil*100, r.SpeedupMin, r.SpeedupP50, r.SpeedupMax)
}
