GO ?= go
GOFMT ?= gofmt

.PHONY: tier1 vet lint escapes build test race fuzz-smoke bench-check fidelity-smoke claims clean

# tier1 is the CI gate. Target graph (each arrow is a declared prerequisite,
# so the graph is fail-fast even under `make -j`: nothing downstream of a
# failed build runs, and a serial `make tier1` stops at the first failing
# stage):
#
#   tier1 ─┬─ vet
#          ├─ lint ─→ build   (e2elint resolves imports via build artifacts)
#          ├─ escapes ─→ build (compiler escape analysis over hot paths)
#          ├─ build
#          ├─ test ─→ build   (the suite once, under -coverprofile, with the
#          │                   per-package floors; includes the alloc gates
#          │                   and the obs, trace, kvload and scale smokes)
#          ├─ race ─→ build
#          ├─ fuzz-smoke ─→ build (every resp and kv fuzz target, 3 s each)
#          ├─ fidelity-smoke ─→ build (one zoo replay, mean and tail reports)
#          └─ bench-check ─→ build (bench/ is its own module: vet, tests, lint)
#
#   claims                    (not in tier1: every claim over 11 seeds, ~41 s)
#
# race runs the short-mode suite only: full sweeps are skipped under -short,
# where the race detector slows simulated runs about 7x (the stream digest's
# word loop is uninstrumented and reports each folded range in one call,
# DESIGN.md §6); the determinism, invariant, fuzz-seed and stress tests all
# still run. fidelity-smoke is short-run-safe:
# it replays the zoo at a reduced duration.
tier1: vet lint escapes build test race fuzz-smoke fidelity-smoke bench-check

vet:
	$(GO) vet ./...

# lint enforces gofmt plus the project's own invariants: the seven e2elint
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

build:
	$(GO) build ./...

# test runs the full suite once, with statement coverage, prints the
# per-package summary, and enforces floors on the packages whose edge cases
# the paper's correctness rests on: the wrap-aware counter math (qstate), the
# estimate combination (core), the fault-injection subsystem (faults), and
# the shared control loop (engine), plus the decision policies (policy,
# floored when tail-SLO objectives landed), the telemetry plane (obs) and its
# span tracing/audit plane (obs/span), the model-fidelity corpus: the
# workload zoo (loadgen) and the closed-form rival (analytic), the invariant
# analyzer suite itself (lint), the two packages every request crosses,
# where bytes off the network are parsed (resp) and executed (kv), the event
# core every simulated number comes out of (sim, floor 90), the transport
# every simulated byte crosses (tcpsim, floor 92) and the real-socket client
# and fleet driver (realtcp, floor 78). Floors sit a few points under
# measured coverage at introduction (qstate 98.9%, core 92.9%, faults 95.5%,
# engine 96.1%, obs 89.6%, obs/span 93.4%, loadgen 96.1%, analytic 96.4%,
# lint 90.0%, policy 98.7%, resp 97.1%, kv 97.4%, tcpsim 95.7%, realtcp
# 82.3%; core re-floored at 90 with the tail-composition coverage) so
# incidental drift passes but a feature landing untested does not.
#
# The suite includes the runtime half of the hot-path allocation discipline:
# the AllocGate tests pin every //e2e:hotpath function, and loadgen's batch
# cycle, at 0 allocations in total over N warmed runs with allocgate.Zero
# (internal/allocgate: the whole Mallocs delta, not AllocsPerRun's integer
# mean, which reads 0 for anything allocating less than once per run). They
# are build-tagged !race (the race runtime allocates shadow state), so they
# run here and not under race.
test: build
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
		floor["e2ebatch/internal/tcpsim"]=92; \
		floor["e2ebatch/internal/realtcp"]=78 } \
		/^ok/ && /coverage:/ { \
			v=""; for (i=1;i<=NF;i++) if ($$i=="coverage:") { v=$$(i+1); sub("%","",v) } \
			if (($$2 in floor) && v+0 < floor[$$2]) { \
				printf "coverage floor violated: %s at %s%% (floor %d%%)\n", $$2, v, floor[$$2]; bad=1 } \
			delete floor[$$2] } \
		END { for (p in floor) { printf "coverage floor unchecked: %s missing from test output\n", p; bad=1 } \
			exit bad }' cover.txt

race: build
	$(GO) test -short -race ./...

# fuzz-smoke runs every fuzz target of the wire parser and the command
# engine for a few seconds of new inputs each (`go test -fuzz` takes one
# target per run): both read bytes straight off the network, and the
# equivalence of the parser's three decoders (Next, NextCommand and Skip) and
# of the engine's two entry points (Exec, Execute) are fuzz properties. The
# seed corpora already run as plain tests; this is the part that generates.
fuzz-smoke: build
	@for pkg in ./internal/resp ./internal/kv; do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime=3s $$pkg || exit 1; \
		done; \
	done

# bench-check covers the repository benchmark (BENCHMARK.json, bench/): it is
# a Go module of its own that compiles against internal/..., so no ./... above
# reaches it and a change to what it calls would otherwise first fail in the
# benchmark driver. Vet, its unit tests under -race (about a second: every
# gate has a deliberately wrong case) and the e2elint analyzers.
bench-check: build
	cd bench && $(GO) vet . && $(GO) test -race . && $(GO) run e2ebatch/cmd/e2elint .

# fidelity-smoke replays the whole workload zoo once through the
# model-fidelity harness at a reduced duration — a fast end-to-end check that
# cmd/fidelity builds, runs, and scores every workload with all three
# predictors, for the mean report and for the tail report (p50/p90/p99/p999
# of the composed histogram estimator, the Gamma tail and the byte
# quantiles). The full 150 ms reports are
# pinned byte-for-byte by TestFidelityGolden and TestTailFidelityGolden.
fidelity-smoke: build
	$(GO) run ./cmd/fidelity -dur 25ms -seed 2

# claims runs the claim table of internal/figures (TestClaims) at 11 seeds
# each (claimSeeds), s0 + 100k for k = 0…10, and rewrites
# internal/figures/testdata/claims_seeds.txt: per claim its k/N, a pass mark
# per seed and the first failing assertion. EXPERIMENTS.md's Seeds column
# quotes the k/N and TestClaimsLedger checks it. About 41 s on 2 CPUs, so it
# stays out of tier1; it gives the same file at any parallelism.
claims:
	E2E_CLAIM_SEEDS=1 $(GO) test -count=1 -run '^TestClaims$$' ./internal/figures

clean:
	$(GO) clean ./...
	rm -f cover.out cover.txt
