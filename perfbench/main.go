// Command perfbench is the repository's benchmark: it runs one named
// workload from a seed, measures it from outside through the layers'
// public APIs, checks the outputs, and prints one JSON result line.
//
//	perfbench --workload replay-endurance --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a separate traced run of the same
// workload. README.md explains the workloads and the metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workload is one named benchmark input. run measures it for the given
// budget and fills res; a returned error means the run could not
// complete and no result is printed.
type workload struct {
	name string
	run  func(cfg runConfig, res *result) error
}

var workloads = []workload{
	{"replay-endurance", runEndurance},
	{"replay-overload", runOverload},
	{"sweep-quick", runSweep},
	{"live-http", runLive},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
}

// deadline is the end of the measured window that started at t0.
func (c runConfig) deadline(t0 time.Time) time.Time {
	return t0.Add(time.Duration(c.seconds * float64(time.Second)))
}

// result accumulates a run's outcome. Every check that fails is kept
// with its reason and printed to stderr; any failure makes the run
// incorrect and the process exit nonzero.
type result struct {
	attempted int64
	failed    int64
	problems  []string
	values    map[string]float64
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

// check records a failed output check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics of an untraced run, 1 per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1}
	res := newResult()
	if err := w.run(cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	names := perLayer
	if !cfg.traced {
		names = endToEnd
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		res.set("peak_rss_mb", rss)
	}
	line, err := encodeResult(res, names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Println(line)
	if len(res.problems) > 0 {
		for _, p := range res.problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", w.name, p)
		}
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// encodeResult renders the result line with exactly the named metrics.
// A metric the workload does not exercise is reported as 0 (per-layer
// only; README.md lists which layers each workload reaches). A missing
// end-to-end metric or a non-finite value is an error, not a result.
func encodeResult(res *result, names []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if res.attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	metrics := make(map[string]value, len(names))
	for _, m := range names {
		v, ok := res.values[m.name]
		if !ok && !m.layer {
			return "", fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is not finite (%v)", m.name, v)
		}
		metrics[m.name] = value{v, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, metrics})
	return string(out), err
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
