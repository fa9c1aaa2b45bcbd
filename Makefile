# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check check-race build test race lint fma-check bench bench-core bench-telemetry experiments quick-experiments fmt vet clean

all: check

# check is the default verification path, in dependency order: build
# first (cheap, fails fast on syntax), then lint (gofmt + go vet, run
# exactly once here — the race targets do not repeat vet), then the
# plain test suite (which also enforces the determinism and docs source
# rules), the differential suites under the race detector (check-race),
# the full suite under the race detector, the telemetry zero-overhead
# guard, and the core stepping-cost guard last (slowest).
check: build lint fma-check test check-race race bench-telemetry bench-core

# lint is a gofmt check over every tracked .go file, then go vet on the
# root module and on bench/, its own module, which ./... does not reach.
# The repository's own source rules (determinism, docs: TestRepoLintClean
# in internal/analysis, see DESIGN.md "Static analysis") and the
# zero-allocation and reset-completeness contracts (TestStepAllocs,
# TestResetCoverage) are tests in the plain test suite.
lint:
	@unformatted="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l flags:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) -C bench vet ./...

# check-race runs the noc + congestion + root differential suites under
# the race detector: drain, the incremental-vs-reference differentials,
# idle skip, and the reset/reuse differentials (Network.Reset vs fresh
# construction, SimPool recycling across heterogeneous shapes, which the
# sweep engine drives from several workers at once).
check-race:
	$(GO) test -race -count=1 -timeout 60m \
		-run 'Incremental|Drain|Detector|Differential|IdleSkip|Reset|SimPool' \
		./internal/noc ./internal/congestion .

# fma-check cross-compiles every package for arm64 and fails on a fused
# multiply-add in the assembly: a product that fuses into a sum skips its
# rounding, so results would differ from amd64's. Wrap the product in an
# explicit float64(...) conversion to keep it rounded (DESIGN.md §4f).
fma-check:
	@asm=$$(mktemp); trap 'rm -f "$$asm"' EXIT; \
	GOARCH=arm64 $(GO) build -gcflags=-S ./... 2> "$$asm" || { cat "$$asm"; exit 1; }; \
	if grep -E '\s(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\s' "$$asm"; then \
		echo "fma-check: fused multiply-add in the arm64 assembly"; exit 1; fi

build:
	$(GO) build ./...

# bench/ is its own module, which ./... does not reach.
test:
	$(GO) test ./...
	$(GO) -C bench test ./...

# race runs every test under the race detector (CI's whole-suite race
# job runs the same command).
race:
	$(GO) test -race -count=1 -timeout 60m ./...

bench:
	$(GO) test -run xxx -bench . -benchmem .

# bench-telemetry times a fixed run with telemetry absent / built-but-
# detached / fully attached (min-of-9, interleaved), writes
# BENCH_telemetry.json, and fails if the detached arm costs >3% over
# base — the "free when off" guard. The attached arm's overhead is
# reported, not bounded.
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

# Regenerate every table/figure at full scale into results/ (slow: ~1h).
experiments:
	mkdir -p results
	$(GO) build -o /tmp/catnapcli ./cmd/catnap
	for e in fig2 table2 fig6 fig7 fig8 fig9 fig10 fig12 fig13 fig14 headline topology hetero profiles; do \
		/tmp/catnapcli $$e > results/$$e.txt || exit 1; \
	done
	/tmp/catnapcli fig11 -pattern uniform-random > results/fig11-ur.txt
	/tmp/catnapcli fig11 -pattern transpose > results/fig11-transpose.txt
	/tmp/catnapcli fig11 -pattern bit-complement > results/fig11-bitcomp.txt

quick-experiments:
	$(GO) run ./cmd/catnap headline -quick

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -f test_output.txt bench_output.txt BENCH_telemetry.json BENCH_core.json \
		bench_old.txt bench_new.txt
