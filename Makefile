GO ?= go
GOFMT ?= gofmt

.PHONY: tier1 vet lint escapes allocgate build test race fuzz-smoke obs-smoke trace-smoke scale-smoke cover bench-check fidelity-smoke tail-fidelity-smoke clean

# tier1 is the CI gate. Target graph (each arrow is a declared prerequisite,
# so the graph is fail-fast even under `make -j`: nothing downstream of a
# failed build runs, and a serial `make tier1` stops at the first failing
# stage):
#
#   tier1 ─┬─ vet
#          ├─ lint ─→ build   (e2elint resolves imports via build artifacts)
#          ├─ escapes ─→ build (compiler escape analysis over hot paths)
#          ├─ allocgate ─→ build (AllocsPerRun pins for //e2e:hotpath)
#          ├─ build
#          ├─ test ─→ build
#          ├─ race ─→ build
#          ├─ fuzz-smoke ─→ build (every resp fuzz target, 3 s each)
#          ├─ fidelity-smoke ─→ build
#          ├─ tail-fidelity-smoke ─→ build
#          ├─ trace-smoke ─→ build (span plane against a real kvserver)
#          ├─ scale-smoke ─→ build (2k-connection shard-engine fleet)
#          ├─ bench-check ─→ build (bench/ is its own module: vet, tests, lint)
#          └─ cover ─→ build  (the suite again under -coverprofile, with the
#                              per-package floors; about as long as test)
#
# race runs the short-mode suite only: full sweeps are skipped under -short
# so the ~10x race overhead stays affordable; the determinism, invariant,
# fuzz-seed and stress tests all still run. fidelity-smoke is short-run-safe:
# it replays the zoo at a reduced duration.
tier1: vet lint escapes allocgate build test race fuzz-smoke obs-smoke trace-smoke scale-smoke fidelity-smoke tail-fidelity-smoke bench-check cover

vet:
	$(GO) vet ./...

# lint enforces gofmt plus the project's own invariants: the eleven e2elint
# analyzers described in DESIGN.md §8 "Enforced invariants" (the escapes
# analyzer runs under its own target below — it needs the compiler).
# Suppressions require a justified `//lint:ignore e2elint/<name> reason`
# directive.
lint: build
	@drift=$$($(GOFMT) -l .); if [ -n "$$drift" ]; then \
		echo "gofmt drift in:"; echo "$$drift"; exit 1; fi
	$(GO) run ./cmd/e2elint ./...

# escapes is the compiler-backed half of the hot-path allocation discipline
# (DESIGN.md §13): rebuild the packages containing //e2e:hotpath functions
# with -gcflags=-m and fail if any hot function's locals move to the heap.
escapes: build
	$(GO) run ./cmd/e2elint -escapes ./...

# allocgate is the runtime half: testing.AllocsPerRun pins every
# //e2e:hotpath function at 0 allocs/op. The gates are build-tagged !race
# (the race runtime allocates shadow state), so they run here and in plain
# `make test`, not under race.
allocgate: build
	$(GO) test -run AllocGate -count=1 ./internal/...

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race: build
	$(GO) test -short -race ./...

# fuzz-smoke runs every fuzz target of the wire parser for a few seconds of
# new inputs each (`go test -fuzz` takes one target per run): the parser
# reads bytes straight off the network, and the equivalence of its three
# decoders (Next, NextCommand and Skip) is a fuzz property. The seed corpora
# already run as plain tests; this is the part that generates.
fuzz-smoke: build
	@for f in $$($(GO) test -list '^Fuzz' ./internal/resp | grep '^Fuzz'); do \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime=3s ./internal/resp || exit 1; \
	done

# obs-smoke exercises the telemetry plane end to end against the real
# kvserver binary: spawn with -obs, drive a request over real TCP, scrape
# /metrics and the /debug endpoints, then SIGINT and require exit 0. The
# same test runs inside `make test`; this target reruns it verbosely and
# uncached for a fast standalone check.
obs-smoke: build
	$(GO) test -count=1 -run TestObsSmokeKvserver -v .

# trace-smoke exercises the span tracing plane end to end against the real
# kvserver binary: spawn with -obs -spansample 1, drive requests over real
# TCP, require /debug/spans to serve well-formed JSONL spans covering them
# and /debug/trace a loadable Chrome trace_event document, then SIGINT and
# require exit 0. The same test runs inside `make test`; this target reruns
# it verbosely and uncached.
trace-smoke: build
	$(GO) test -count=1 -run TestTraceSmokeKvserver -v .

# scale-smoke exercises the shared-nothing shard engine at fleet scale: a
# 2000-connection kvload-shaped fleet against an in-process kvserver, every
# connection's control tick and pacing on shard timer wheels, asserting a
# clean run — zero dial errors, zero lost run-queue work, per-shard rollups
# consistent with the report, and the goroutine count back at baseline
# (the per-connection-goroutine regression guard). The same test runs
# inside `make test`; this target reruns it verbosely and uncached.
scale-smoke: build
	$(GO) test -count=1 -run TestScaleSmoke -v .

# cover runs the full suite with statement coverage, prints the per-package
# summary, and enforces floors on the packages whose edge cases the paper's
# correctness rests on: the wrap-aware counter math (qstate), the estimate
# combination (core), the fault-injection subsystem (faults), and the shared
# control loop (engine), plus the decision policies (policy, floored when
# tail-SLO objectives landed), the PR-8 telemetry plane (obs) and its span
# tracing/audit plane (obs/span), the model-fidelity corpus: the workload zoo (loadgen) and the closed-form
# rival (analytic), the invariant analyzer suite itself (lint), the two
# packages every request crosses, where bytes off the network are parsed
# (resp) and executed (kv), the event core every simulated number comes out
# of (sim, floor 90) and the transport every simulated byte crosses (tcpsim,
# floor 92). Floors sit a few points under measured coverage at
# introduction (qstate 98.9%, core 92.9%, faults 95.5%, engine 96.1%,
# obs 89.6%, obs/span 93.4%, loadgen 96.1%, analytic 96.4%,
# lint 90.0%, policy 98.7%, resp 97.1%, kv 97.4%, tcpsim 95.7%; core
# re-floored at 90 with the tail-composition coverage) so incidental drift passes but a feature
# landing untested does not.
cover: build
	@$(GO) test -coverprofile=cover.out ./... > cover.txt || { cat cover.txt; rm -f cover.txt cover.out; exit 1; }
	@cat cover.txt
	@$(GO) tool cover -func=cover.out | tail -1
	@awk 'BEGIN { floor["e2ebatch/internal/qstate"]=95; \
		floor["e2ebatch/internal/core"]=90; \
		floor["e2ebatch/internal/policy"]=90; \
		floor["e2ebatch/internal/faults"]=90; \
		floor["e2ebatch/internal/engine"]=92; \
		floor["e2ebatch/internal/obs"]=84; \
		floor["e2ebatch/internal/obs/span"]=88; \
		floor["e2ebatch/internal/lint"]=85; \
		floor["e2ebatch/internal/loadgen"]=92; \
		floor["e2ebatch/internal/analytic"]=92; \
		floor["e2ebatch/internal/resp"]=93; \
		floor["e2ebatch/internal/kv"]=93; \
		floor["e2ebatch/internal/sim"]=90; \
		floor["e2ebatch/internal/tcpsim"]=92 } \
		/^ok/ && /coverage:/ { \
			v=""; for (i=1;i<=NF;i++) if ($$i=="coverage:") { v=$$(i+1); sub("%","",v) } \
			if (($$2 in floor) && v+0 < floor[$$2]) { \
				printf "coverage floor violated: %s at %s%% (floor %d%%)\n", $$2, v, floor[$$2]; bad=1 } \
			delete floor[$$2] } \
		END { for (p in floor) { printf "coverage floor unchecked: %s missing from test output\n", p; bad=1 } \
			exit bad }' cover.txt

# bench-check covers the repository benchmark (BENCHMARK.json, bench/): it is
# a Go module of its own that compiles against internal/..., so no ./... above
# reaches it and a change to what it calls would otherwise first fail in the
# benchmark driver. Vet, its unit tests under -race (about a second: every
# gate has a deliberately wrong case) and the e2elint analyzers.
bench-check: build
	cd bench && $(GO) vet . && $(GO) test -race . && $(GO) run e2ebatch/cmd/e2elint .

# fidelity-smoke replays the whole workload zoo through the model-fidelity
# harness at a reduced duration — a fast end-to-end check that cmd/fidelity
# builds, runs, and scores every workload with all three predictors. The
# full 150 ms report is pinned byte-for-byte by TestFidelityGolden.
fidelity-smoke: build
	$(GO) run ./cmd/fidelity -dur 25ms -seed 2

# tail-fidelity-smoke is the quantile analogue: the same zoo replay scored at
# p50/p90/p99/p999 with v2 (histogram-carrying) metadata exchanges. The full
# 150 ms report is pinned byte-for-byte by TestTailFidelityGolden.
tail-fidelity-smoke: build
	$(GO) run ./cmd/fidelity -tails -dur 25ms -seed 2

clean:
	$(GO) clean ./...
	rm -f cover.out cover.txt
