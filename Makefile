# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check check-race build test race lint bench bench-core bench-compare bench-telemetry experiments quick-experiments fmt vet clean

all: check

# check is the default verification path, in dependency order: build
# first (cheap, fails fast on syntax), then the static-analysis gate
# (lint = go vet + catnap-lint, run exactly once here — the race
# targets no longer duplicate vet), then the plain test suite, the
# differential suites under the race detector (check-race), the full
# suite under the race detector, the telemetry zero-overhead guard,
# and the core stepping-cost guard last (slowest).
check: build lint test check-race race bench-telemetry bench-core

# lint is the single static-analysis entry point: go vet plus the
# in-tree catnap-lint suite (nodeterminism, hotpathalloc, contractflow,
# resetcoverage, missingdoc — see DESIGN.md "Static analysis"). -time
# prints the per-analyzer wall-time breakdown so a slow check is
# attributable.
# catnap-lint also fails on malformed or unused //lint:ignore
# directives, so stale suppressions cannot linger.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/catnap-lint -time ./...

# check-race runs the noc + congestion + root differential suites under
# the race detector: mid-run flips, drain, the incremental-vs-reference
# differentials, idle skip, and the reset/reuse differentials
# (Network.Reset vs fresh construction, SimPool recycling across
# heterogeneous shapes, which the sweep engine drives from several
# workers at once).
check-race:
	$(GO) test -race -count=1 -timeout 60m \
		-run 'Incremental|Flip|Drain|Detector|Differential|IdleSkip|Reset|SimPool' \
		./internal/noc ./internal/congestion .

build:
	$(GO) build ./...

# bench/ is its own module, which ./... does not reach.
test:
	$(GO) test ./...
	$(GO) -C bench test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchmem .

# bench-telemetry times a fixed run with telemetry absent / built-but-
# detached / fully attached (min-of-5, interleaved), writes
# BENCH_telemetry.json, and fails if the detached arm costs >2% over
# base — the "free when off" guard.
bench-telemetry:
	TELEMETRY_GUARD=1 $(GO) test -run TestTelemetryOverheadGuard -count=1 .

# bench-core times Network.Step across load/gating scenarios on both the
# incremental path and the reference-scan path (min-of-5, interleaved),
# writes BENCH_core.json (ns/cycle, B/cycle, speedup per scenario), and
# fails if the low-load gated speedup regresses below 3x, if the
# saturation gated speedup regresses below 2x, if the idle-gated steady
# state allocates, if idle skip misses 100x, if the warm explore cache
# misses 20x, or if the sweep-reuse pool misses 2x points/sec over fresh
# construction — the O(active)-stepping, idle fast-forward, and
# zero-rebuild-sweep guards. See DESIGN.md "Hot path" and §4i.
bench-core:
	CORE_BENCH=1 $(GO) test -run TestCoreBenchGuard -count=1 -timeout 30m .

# bench-compare snapshots the bench-core report and diffs it against the
# previous snapshot with cmd/catnap-benchdiff, which understands the
# BENCH_core.json schema (and ignores fields of older schemas). First
# run saves the baseline; later runs print per-scenario deltas and FAIL
# (exit 1) if any scenario's fast arm slowed down by more than
# BENCH_FAIL_OVER percent, or if baseline coverage was dropped. Override
# the threshold per run: `make bench-compare BENCH_FAIL_OVER=50`
# (generous default because min-of-5 wall-clock numbers on shared
# machines are noisy).
BENCH_FAIL_OVER ?= 35
bench-compare:
	CORE_BENCH=1 BENCH_CORE_OUT=bench_core_new.json $(GO) test -run TestCoreBenchGuard -count=1 -timeout 30m .
	@if [ -f bench_core_old.json ]; then \
		$(GO) run ./cmd/catnap-benchdiff -fail-over $(BENCH_FAIL_OVER) bench_core_old.json bench_core_new.json; \
	else \
		cp bench_core_new.json bench_core_old.json; \
		echo "bench-compare: saved baseline to bench_core_old.json; rerun after changes to compare."; \
	fi

# Regenerate every table/figure at full scale into results/ (slow: ~1h).
experiments:
	mkdir -p results
	$(GO) build -o /tmp/catnapcli ./cmd/catnap
	for e in fig2 table2 fig6 fig7 fig8 fig9 fig10 fig12 fig13 fig14 headline topology hetero profiles; do \
		/tmp/catnapcli $$e > results/$$e.txt || exit 1; \
	done
	/tmp/catnapcli -pattern uniform-random fig11 > results/fig11-ur.txt
	/tmp/catnapcli -pattern transpose fig11 > results/fig11-transpose.txt
	/tmp/catnapcli -pattern bit-complement fig11 > results/fig11-bitcomp.txt

quick-experiments:
	$(GO) run ./cmd/catnap -quick headline

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -f test_output.txt bench_output.txt BENCH_telemetry.json BENCH_core.json \
		bench_old.txt bench_new.txt bench_core_old.json bench_core_new.json
