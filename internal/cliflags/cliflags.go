// Package cliflags is the shared flag surface of the libra commands.
// libra-sim, libra-bench and libra-serve all take the same workload
// seed, trace output and platform-preset flags; defining them once
// keeps names, defaults and help strings from drifting apart across
// binaries.
package cliflags

import (
	"flag"

	"libra/internal/cluster"
	"libra/internal/core"
	"libra/internal/faults"
	"libra/internal/platform"
)

// Common holds the flags every command shares.
type Common struct {
	Seed  int64
	Trace string
}

// AddCommon registers -seed and -trace on fs.
func AddCommon(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.Int64Var(&c.Seed, "seed", 42, "random seed")
	fs.StringVar(&c.Trace, "trace", "", "write the invocation-lifecycle trace as JSONL to this file")
	return c
}

// AddParallel registers -parallel on fs (the commands that fan units
// over a worker pool). It is the only parallelism knob: each unit
// replays on one serial event engine, so runs parallelize across
// units, never inside one.
func AddParallel(fs *flag.FlagSet) *int {
	return fs.Int("parallel", 0, "worker pool size for experiment units (0 = GOMAXPROCS, 1 = serial)")
}

// Platform holds the platform-preset selection flags.
type Platform struct {
	Variant    string
	Testbed    string
	Algorithm  string
	Nodes      int
	Schedulers int
	Threshold  float64
	Alpha      float64
}

// AddPlatform registers the platform-preset flags on fs with the given
// variant/testbed defaults (libra-sim defaults to the paper's
// single-node testbed, libra-serve to a wide Jetstream slice).
func AddPlatform(fs *flag.FlagSet, defaultVariant, defaultTestbed string) *Platform {
	p := &Platform{}
	fs.StringVar(&p.Variant, "variant", defaultVariant, "platform variant: default|freyr|libra|libra-ns|libra-np|libra-nsp")
	fs.StringVar(&p.Testbed, "testbed", defaultTestbed, "testbed: single|multi|jetstream")
	fs.StringVar(&p.Algorithm, "algorithm", "", "scheduling algorithm override: Default|RR|JSQ|MWS|Libra")
	fs.IntVar(&p.Nodes, "nodes", 0, "node count override")
	fs.IntVar(&p.Schedulers, "schedulers", 0, "sharding scheduler count override")
	fs.Float64Var(&p.Threshold, "threshold", 0, "safeguard threshold override (0 = default 0.8)")
	fs.Float64Var(&p.Alpha, "alpha", 0, "demand coverage weight override (0 = default 0.9)")
	return p
}

// CoreConfig resolves the selection into a core.Config.
func (p *Platform) CoreConfig(seed int64) core.Config {
	return core.Config{
		Variant:            core.Variant(p.Variant),
		Testbed:            core.Testbed(p.Testbed),
		Algorithm:          p.Algorithm,
		Nodes:              p.Nodes,
		Schedulers:         p.Schedulers,
		SafeguardThreshold: p.Threshold,
		CoverageWeight:     p.Alpha,
		Seed:               seed,
	}
}

// Faults holds the fault-injection flags shared by libra-sim (replay
// chaos) and libra-serve (-chaos live).
type Faults struct {
	Chaos             bool
	CrashMTBF         float64
	MTTR              float64
	OOMKill           bool
	StragglerFraction float64
	StragglerFactor   float64
	MaxRetries        int
}

// AddFaults registers the -chaos and -fault-* flags on fs.
func AddFaults(fs *flag.FlagSet) *Faults {
	f := &Faults{}
	fs.BoolVar(&f.Chaos, "chaos", false, "enable the default chaos schedule (node crashes MTBF 20s, OOM kills, 5% stragglers); -fault-* flags refine it")
	fs.Float64Var(&f.CrashMTBF, "fault-crash-mtbf", 0, "per-node mean time between crashes in seconds (0 = no crashes unless -chaos)")
	fs.Float64Var(&f.MTTR, "fault-mttr", 0, "mean node repair time in seconds (0 = default)")
	fs.BoolVar(&f.OOMKill, "fault-oom", false, "enable invocation OOM kills at the memory peak while harvested memory is on loan")
	fs.Float64Var(&f.StragglerFraction, "fault-straggler", 0, "fraction of executions sampled as stragglers in [0,1]")
	fs.Float64Var(&f.StragglerFactor, "fault-straggler-factor", 0, "straggler duration multiplier (0 = default)")
	fs.IntVar(&f.MaxRetries, "fault-retries", 0, "per-invocation retry budget (0 = default, negative = fail fast)")
	return f
}

// Scale holds the elastic-node-group flags shared by libra-sim and
// libra-serve.
type Scale struct {
	NodeGroup  string
	BacklogHi  int
	BacklogLo  int
	UtilHi     float64
	UtilLo     float64
	Interval   float64
	Cooldown   float64
	StepUp     int
	StepDown   int
	DrainGrace float64
}

// AddScale registers -nodegroup and the -scale-* tuning flags on fs.
func AddScale(fs *flag.FlagSet) *Scale {
	s := &Scale{}
	fs.StringVar(&s.NodeGroup, "nodegroup", "", `elastic node group as "min:desired:max" (empty desired = min; empty = fixed fleet)`)
	fs.IntVar(&s.BacklogHi, "scale-backlog-hi", 0, "ready-queue depth that triggers scale-up (0 = default 1)")
	fs.IntVar(&s.BacklogLo, "scale-backlog-lo", 0, "ready-queue depth at or below which scale-down is considered")
	fs.Float64Var(&s.UtilHi, "scale-util-hi", 0, "reservation-pressure watermark for scale-up (0 = default 0.85)")
	fs.Float64Var(&s.UtilLo, "scale-util-lo", 0, "reservation-pressure watermark for scale-down (0 = default 0.35)")
	fs.Float64Var(&s.Interval, "scale-interval", 0, "controller evaluation period in seconds (0 = default 1)")
	fs.Float64Var(&s.Cooldown, "scale-cooldown", 0, "minimum spacing between scale decisions in seconds (0 = default 5)")
	fs.IntVar(&s.StepUp, "scale-step-up", 0, "nodes added per scale-up decision (0 = default 1)")
	fs.IntVar(&s.StepDown, "scale-step-down", 0, "nodes drained per scale-down decision (0 = default 1)")
	fs.Float64Var(&s.DrainGrace, "scale-drain-grace", 0, "longest a draining node waits for stragglers in seconds (0 = default 30)")
	return s
}

// Config resolves the flags into a platform.AutoscaleConfig, parsing the
// -nodegroup spec. An empty -nodegroup yields the zero (disabled) config
// regardless of the tuning flags.
func (s *Scale) Config() (platform.AutoscaleConfig, error) {
	if s.NodeGroup == "" {
		return platform.AutoscaleConfig{}, nil
	}
	g, err := cluster.ParseNodeGroup(s.NodeGroup)
	if err != nil {
		return platform.AutoscaleConfig{}, err
	}
	return platform.AutoscaleConfig{
		Group:      g,
		BacklogHi:  s.BacklogHi,
		BacklogLo:  s.BacklogLo,
		UtilHi:     s.UtilHi,
		UtilLo:     s.UtilLo,
		Interval:   s.Interval,
		Cooldown:   s.Cooldown,
		StepUp:     s.StepUp,
		StepDown:   s.StepDown,
		DrainGrace: s.DrainGrace,
	}, nil
}

// Config resolves the flags into a faults.Config. -chaos fills in a
// default schedule that exercises every fault class; explicit -fault-*
// values win over the chaos defaults.
func (f *Faults) Config() faults.Config {
	cfg := faults.Config{
		CrashMTBF:         f.CrashMTBF,
		MTTR:              f.MTTR,
		OOMKill:           f.OOMKill,
		StragglerFraction: f.StragglerFraction,
		StragglerFactor:   f.StragglerFactor,
		MaxRetries:        f.MaxRetries,
	}
	if f.Chaos {
		if cfg.CrashMTBF == 0 {
			cfg.CrashMTBF = 20
		}
		if cfg.StragglerFraction == 0 {
			cfg.StragglerFraction = 0.05
		}
		cfg.OOMKill = true
	}
	return cfg
}
