# Libra reproduction — common targets.

GO ?= go

.PHONY: all build test race check fmt-check vet perfbench-check bench bench-json bench-pr8 quick report examples clean figs4-smoke scale-race figr1

# Default verify path: formatting, vet, build, tests — then the race
# detector over the whole module (the parallel experiment harness must
# stay data-race-free; it also covers the simtest, sim, clock and core
# differential replays).
all: check race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race builds run the full suite ~10× slower; raise the per-package
# timeout so single-core machines don't trip go test's 10m default.
race:
	$(GO) test -race -timeout 45m ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# perfbench/ is its own Go module, so ./... at the root never compiles
# it; vet and test it here so a clock/sim/platform API change cannot
# break the benchmark unseen.
perfbench-check:
	$(GO) -C perfbench vet .
	$(GO) -C perfbench test .

check: fmt-check vet build test perfbench-check

# benchstat-comparable output: pipe two runs into benchstat to compare.
bench:
	$(GO) test -bench=. -benchmem

# Refresh the committed perf-trajectory report (the baseline snapshot in
# the file is preserved; only the current snapshot is rewritten).
bench-json:
	$(GO) run ./cmd/libra-bench -json BENCH_PR5.json

quick:
	$(GO) run ./cmd/libra-bench -quick

# Regenerate the committed PR-8 elasticity record: the full-scale figs4
# replay (50→1000 nodes) plus the Libra decision cost at 50/200/1000
# nodes. Under a minute of wall time; the quick CI proxy is figs4-smoke.
bench-pr8:
	$(GO) run ./cmd/libra-bench -elastic BENCH_PR8.json

# Diurnal-elasticity replay (EXPERIMENTS.md Fig S4), quick mode: static
# base fleet vs peak-provisioned fleet vs the elastic node group on the
# 20× load swing. The render's invariants line must report zero leaked
# loans and zero capacity violations.
figs4-smoke:
	$(GO) run ./cmd/libra-bench -exp figs4 -quick

# Scale-down drains racing the chaos schedule, race detector on: the
# property test sweeps seeds and asserts no drain ever leaks a loan or
# leaves a node over capacity.
scale-race:
	$(GO) test -race -timeout 10m -count=1 \
	  -run 'TestAutoscaleDrainUnderChaosLeaksNothing' ./internal/platform/

# Live-resilience run (EXPERIMENTS.md Fig R1): 2.5× overload plus the
# default chaos schedule on the wall clock, admission-controlled. The
# selfcheck gates on clean drain, zero leaked loans, zero capacity
# violations and a respected pending budget; the measured summary
# refreshes BENCH_FIGR1.json.
figr1:
	$(GO) run ./cmd/libra-serve -addr 127.0.0.1:0 -nodes 4 -schedulers 8 \
	  -rate 12000 -duration 5 -syn-cpu 400 -chaos \
	  -max-pending 2000 -deadline 500 -degrade-hi 500 \
	  -selfcheck -bench-out BENCH_FIGR1.json

report:
	$(GO) run ./cmd/libra-report -out results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/harvesting
	$(GO) run ./examples/multinode
	$(GO) run ./examples/scaling
	$(GO) run ./examples/customworkload

clean:
	rm -rf results test_output.txt bench_output.txt
