package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"libra/internal/clock"
	"libra/internal/core"
	"libra/internal/function"
	"libra/internal/obs"
	"libra/internal/resources"
	"libra/internal/serve"
)

// The live workload serves the libra-serve defaults: the Libra preset on
// 96 Jetstream nodes × 64 schedulers with a 20 µs dispatch time, and the
// synthetic function SYN (100 mc, 64 MB, 50 ms, no cold start).
const (
	synApp       = "SYN"
	liveNodes    = 96
	liveShards   = 64
	liveDispatch = 2e-5

	// fixedRate is the offered rate of the latency measurement, well
	// below the ceiling (~16k req/s on a 2-vCPU x86-64 VM) so the
	// reported latency is the cost of the path rather than of queueing.
	fixedRate = 3000.0
	// acceptLimitMs is the accept-p99 limit of a saturation probe.
	acceptLimitMs = 50.0
	// warmRequests sizes the warm-up burst before each window: it trains
	// SYN's profile, fills warm containers and opens the connections, all
	// outside the measured window and inside setup_s.
	warmRequests = 1000
	// fixedServers is how many fresh servers the fixed-rate latency is
	// measured on, one window each; probes is how many windows, each on
	// a fresh server, the saturation staircase offers.
	fixedServers = 12
	probes       = 24
)

var registerSYN sync.Once

// shot is one generated request. Times are nanoseconds since the
// generator's start.
type shot struct {
	due, send, done int64
	id              int64 // invocation ID from the 202 body (traced runs)
	ok              bool
}

func (s shot) acceptMs() float64 { return float64(s.done-s.due) / 1e6 }
func (s shot) lateMs() float64   { return float64(s.send-s.due) / 1e6 }

// liveServer is one fresh in-process server and the client that drives
// it over loopback with at most one connection per CPU.
type liveServer struct {
	srv    *serve.Server
	client *http.Client
	url    string
	epoch  time.Time   // wall instant of the driver's time zero
	tracer *liveTracer // nil when untraced
}

func startLive(seed int64, traced bool) (*liveServer, error) {
	var regErr error
	registerSYN.Do(func() {
		regErr = function.Register(function.Synthetic(synApp,
			resources.Millicores(100), resources.MegaBytes(64), 0.05, 0))
	})
	if regErr != nil {
		return nil, regErr
	}
	pc, err := core.Config{Variant: core.VariantLibra, Testbed: core.TestbedJetstream,
		Nodes: liveNodes, Schedulers: liveShards, Seed: seed}.PlatformConfig()
	if err != nil {
		return nil, err
	}
	pc.DispatchTime = liveDispatch
	ls := &liveServer{}
	scfg := serve.Config{Platform: pc, Addr: "127.0.0.1:0", DrainTimeout: 30 * time.Second}
	if traced {
		ls.tracer = &liveTracer{}
		scfg.Tracer = ls.tracer
	}
	// The source's epoch is taken inside NewRealSource; bracketing the
	// call bounds the driver-time→wall mapping error by the call's length.
	before := time.Now()
	scfg.Source = clock.NewRealSource()
	ls.epoch = before.Add(time.Since(before) / 2)
	ls.srv, err = serve.New(scfg)
	if err != nil {
		return nil, err
	}
	if err := ls.srv.Start(); err != nil {
		return nil, err
	}
	n := runtime.NumCPU()
	ls.client = &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n,
			DisableCompression: true},
	}
	ls.url = "http://" + ls.srv.Addr() + "/invoke/" + synApp
	return ls, nil
}

// stop drains the server and checks conservation: every request the
// ingress accepted was ingested, and every ingested invocation
// completed, was abandoned or expired, with no waiter failed.
func (ls *liveServer) stop(accepted int64, res *result) error {
	ls.client.CloseIdleConnections()
	_, rep, err := ls.srv.Stop(context.Background())
	if err != nil {
		return err
	}
	in, done, ab, ex := ls.srv.Ingested(), ls.srv.Completed(), ls.srv.Abandoned(), ls.srv.Expired()
	res.check(rep.Drained && rep.Remaining == 0, "server did not drain: %s", rep)
	res.check(rep.FailedWaiters == 0, "%d waiters failed at shutdown", rep.FailedWaiters)
	res.check(in == done+ab+ex, "ingested %d != completed %d + abandoned %d + expired %d", in, done, ab, ex)
	res.check(in == accepted, "ingress accepted %d requests but ingested %d", accepted, in)
	return nil
}

// schedule draws the open-loop due times, in nanoseconds from the
// window's start: one request every 1/rate seconds for seconds, from a
// random phase. Uniform spacing rather than Poisson arrivals keeps the
// knee sharp: with only one connection per CPU, Poisson bursts queue at
// the client well before the server saturates.
func schedule(rng *rand.Rand, rate, seconds float64) []int64 {
	var due []int64
	for t := rng.Float64() / rate; t < seconds; t += 1 / rate {
		due = append(due, int64(t*1e9))
	}
	return due
}

// fire runs one open-loop window: each due request is sent when due by
// whichever of the connections' workers is free, and timed from its due
// time, so a stall delays — and is charged to — the requests behind it.
func (ls *liveServer) fire(rng *rand.Rand, due []int64) ([]shot, time.Time) {
	urls := make([]string, len(due))
	for i := range urls {
		urls[i] = fmt.Sprintf("%s?nowait=1&seed=%d", ls.url, rng.Uint64())
	}
	shots := make([]shot, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if d := time.Duration(due[i]) - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				s := shot{due: due[i], send: int64(time.Since(start))}
				s.id, s.ok = ls.post(urls[i])
				s.done = int64(time.Since(start))
				shots[i] = s
			}
		}()
	}
	wg.Wait()
	return shots, start
}

// post sends one nowait invocation and reports whether it was accepted
// (202). Traced runs read the invocation ID from the body.
func (ls *liveServer) post(url string) (int64, bool) {
	resp, err := ls.client.Post(url, "", nil)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var id int64
	if ls.tracer != nil {
		var body struct {
			ID int64 `json:"id"`
		}
		if json.NewDecoder(resp.Body).Decode(&body) == nil {
			id = body.ID
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return id, resp.StatusCode == http.StatusAccepted
}

// warm sends the warm-up burst back to back on every connection and
// waits until it has all finished.
func (ls *liveServer) warm(rng *rand.Rand) []shot {
	shots, _ := ls.fire(rng, make([]int64, warmRequests))
	ls.settle()
	return shots
}

// settle waits until the server has nothing in flight (bounded).
func (ls *liveServer) settle() {
	for end := time.Now().Add(10 * time.Second); ls.srv.Pending() > 0 && time.Now().Before(end); {
		time.Sleep(2 * time.Millisecond)
	}
}

// window is one measured open-loop window on a fresh, warmed server.
type window struct {
	shots       []shot
	start       time.Time // the generator's time zero
	setupS      float64
	completeP99 float64 // server-side ingest→completion p99 from /stats, ms
	pendingEnd  int64   // admitted-but-unfinished invocations when sending stopped
	cpuS        float64 // process CPU time spent in the window
	events      uint64  // driver events fired in the window
	ingested    int64
	server      *liveServer
}

func accepted(shots []shot) (ok, failed int64) {
	for _, s := range shots {
		if s.ok {
			ok++
		} else {
			failed++
		}
	}
	return ok, failed
}

// runWindow sets up a fresh server, warms it, offers rate for seconds,
// then drains and checks it.
func runWindow(seed int64, rate, seconds float64, traced bool, res *result) (*window, error) {
	rng := rand.New(rand.NewSource(seed))
	runtime.GC()
	t0 := time.Now()
	ls, err := startLive(seed, traced)
	if err != nil {
		return nil, err
	}
	warm := ls.warm(rng)
	w := &window{setupS: time.Since(t0).Seconds(), server: ls}
	ev0, in0 := ls.srv.Snapshot().EventsFired, ls.srv.Ingested()
	cpu0 := cpuSeconds()
	w.shots, w.start = ls.fire(rng, schedule(rng, rate, seconds))
	w.pendingEnd = ls.srv.Pending()
	ls.settle()
	w.cpuS = cpuSeconds() - cpu0
	w.events = ls.srv.Snapshot().EventsFired - ev0
	w.ingested = ls.srv.Ingested() - in0
	var statsErr error
	if traced {
		var st serve.Stats
		st, statsErr = ls.stats()
		w.completeP99 = st.LatencyP99Ms
	}
	ok, failed := accepted(append(warm, w.shots...))
	res.attempted += ok + failed
	res.failed += failed
	if err := ls.stop(ok, res); err != nil {
		return nil, err
	}
	return w, statsErr
}

// pass is the saturation verdict on one window: every request accepted,
// accept p99 under the limit, and no backlog left growing — when the
// generator stopped, no more than 150 ms of offered work (three SYN
// executions' worth) was still unfinished.
func (w *window) pass(rate float64) bool {
	if _, failed := accepted(w.shots); failed > 0 {
		return false
	}
	p99 := acceptLatency(w.shots).p99
	ok := p99 <= acceptLimitMs && float64(w.pendingEnd) <= rate*0.15+50
	fmt.Fprintf(os.Stderr, "live: probe %.0f req/s: accept p99 %.2f ms, %d unfinished at end, pass=%v\n",
		rate, p99, w.pendingEnd, ok)
	return ok
}

func runLive(cfg runConfig, res *result) error {
	if cfg.traced {
		return tracedLive(cfg, res)
	}
	var setups, p50s, p90s []float64
	window := func(seed int64, rate, seconds float64) (*window, error) {
		w, err := runWindow(seed, rate, seconds, false, res)
		if err == nil {
			setups = append(setups, w.setupS)
		}
		return w, err
	}
	// The latency at the fixed rate is the median over fixedServers fresh
	// servers, one short window each. The windows are spread over the run,
	// one before every other saturation probe, so that a burst of steal
	// from neighbouring VMs on a shared host sets a few windows' figures
	// and not the reported ones. The tail reported is the p90:
	// on a 2-vCPU VM shared with other tenants the p99 of this in-process
	// path follows the host's steal from run to run (IQR over median
	// 0.2-0.26 across ten runs). The traced run reports the p99.
	fixed := func() error {
		w, err := window(cfg.seed+int64(len(p50s)), fixedRate, cfg.seconds/(2*fixedServers))
		if err != nil {
			return err
		}
		l := acceptLatency(w.shots)
		p50s, p90s = append(p50s, l.p50), append(p90s, l.p90)
		return nil
	}

	// The ceiling is where a probe window passes half the time (see
	// saturationRate). On a shared host the verdict at one rate is noisy
	// — a window well below the knee fails now and then on a stall —
	// so the staircase's mean is steadier than any bisection's last
	// bracket.
	probe := 0
	var probeErr error
	maxRate := saturationRate(12000, 1.25, 1.04, probes, func(rate float64) bool {
		if probeErr != nil {
			return false
		}
		if probe%(probes/fixedServers) == 0 {
			if probeErr = fixed(); probeErr != nil {
				return false
			}
		}
		probe++
		w, err := window(cfg.seed+int64(probe)*7919, rate, cfg.seconds/12)
		if err != nil {
			probeErr = err
			return false
		}
		return w.pass(rate)
	})
	if probeErr != nil {
		return probeErr
	}
	res.check(maxRate > 0, "no offered rate met the accept-p99 limit of %.0f ms", acceptLimitMs)
	res.set("throughput_per_s", maxRate)
	res.set("latency_p50_ms", median(p50s))
	res.set("latency_tail_ms", median(p90s))
	res.set("setup_s", median(setups))
	return nil
}

// latency is a window's due→202 accept latency percentiles, in ms.
type latency struct{ p50, p90, p99 float64 }

func acceptLatency(shots []shot) latency {
	all := make([]float64, len(shots))
	for i, s := range shots {
		all[i] = s.acceptMs()
	}
	sort.Float64s(all)
	return latency{sortedQuantile(all, 0.5), sortedQuantile(all, 0.9), sortedQuantile(all, 0.99)}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stats reads the server's /stats endpoint.
func (ls *liveServer) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := ls.client.Get("http://" + ls.srv.Addr() + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	return st, nil
}

// tracedLive runs the fixed-rate window twice on fresh servers, once
// untraced and once with the benchmark's tracer and a real time source
// whose epoch it recorded, and attributes each request's time to the
// hops between its send, its arrival on the event loop, its scheduling
// decision, its execution and its 202.
func tracedLive(cfg runConfig, res *result) error {
	seconds := cfg.seconds / 2
	plain, err := runWindow(cfg.seed, fixedRate, seconds, false, res)
	if err != nil {
		return err
	}
	w, err := runWindow(cfg.seed, fixedRate, seconds, true, res)
	if err != nil {
		return err
	}
	h := attributeHops(w.shots, w.start, w.server.epoch, w.server.tracer.events)
	res.check(h.matched == len(w.shots), "traced %d of %d window requests through arrival, decision, execution and completion",
		h.matched, len(w.shots))
	res.set("serve.accept_ms_p50", quantile(h.accept, 0.5))
	res.set("serve.accept_ms_p99", quantile(h.accept, 0.99))
	res.set("serve.ingress_ms_p50", quantile(h.ingress, 0.5))
	res.set("serve.ingress_ms_p99", quantile(h.ingress, 0.99))
	res.set("platform.live_sched_ms_p99", quantile(h.sched, 0.99))
	res.set("cluster.live_exec_ms_p50", quantile(h.exec, 0.5))
	res.set("loadgen.late_ms_p99", quantile(h.late, 0.99))
	res.set("loadgen.accept_ms_p99", acceptLatency(plain.shots).p99)
	res.set("serve.complete_ms_p99", w.completeP99)
	res.set("serve.cpu_us_per_req", w.cpuS/float64(w.ingested)*1e6)
	res.set("clock.events_per_req", float64(w.events)/float64(w.ingested))
	h.counts.report(res)
	res.set("obs.overhead_pct", (w.cpuS/float64(w.ingested)/(plain.cpuS/float64(plain.ingested))-1)*100)
	return nil
}

// hops is the per-request time attribution of a traced window, in ms.
type hops struct {
	accept, ingress, sched, exec, late []float64
	matched                            int         // requests seen through every hop
	counts                             eventCounts // of the window's invocations
}

// attributeHops joins the window's requests to their invocations' obs
// events by ID. Event times are driver seconds since epoch; shot times
// are nanoseconds since start, the generator's time zero.
func attributeHops(shots []shot, start, epoch time.Time, events []obs.Event) hops {
	offset := start.Sub(epoch).Seconds() // generator zero in driver time
	type span struct{ arrival, decision, execStart, complete float64 }
	spans := make(map[int64]*span, len(shots))
	var h hops
	for _, s := range shots {
		h.accept = append(h.accept, float64(s.done-s.send)/1e6)
		h.late = append(h.late, s.lateMs())
		if s.id != 0 {
			spans[s.id] = &span{arrival: -1, decision: -1, execStart: -1, complete: -1}
		}
	}
	for _, ev := range events {
		sp, ok := spans[ev.Inv]
		if !ok {
			continue
		}
		h.counts.add(ev)
		switch ev.Kind {
		case obs.KindArrival:
			sp.arrival = ev.T
		case obs.KindDecision:
			sp.decision = ev.T
		case obs.KindExecStart:
			sp.execStart = ev.T
		case obs.KindComplete:
			sp.complete = ev.T
		}
	}
	for _, s := range shots {
		sp, ok := spans[s.id]
		if !ok || sp.arrival < 0 || sp.decision < 0 || sp.execStart < 0 || sp.complete < 0 {
			continue
		}
		h.matched++
		send := offset + float64(s.send)/1e9
		h.ingress = append(h.ingress, (sp.arrival-send)*1e3)
		h.sched = append(h.sched, (sp.decision-sp.arrival)*1e3)
		h.exec = append(h.exec, (sp.complete-sp.execStart)*1e3)
	}
	return h
}

// liveTracer keeps every live event for the hop attribution. It is
// called on the event loop goroutine only and read after the loop has
// stopped.
type liveTracer struct {
	events []obs.Event
}

func (t *liveTracer) Record(ev obs.Event) { t.events = append(t.events, ev) }
