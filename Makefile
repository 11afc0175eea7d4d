# Smoke gate: `make check` runs what CI would — vet, build, the full test
# suite under the race detector, and a single-iteration pass over the
# distance/cluster benchmarks (including the pairwise-matrix engine's
# serial-vs-parallel equality assertion in BenchmarkPairwiseMatrix).
# `make verify` checks the experiment grid against the committed
# golden-fingerprint corpus; `make golden` regenerates the corpus after an
# intentional output change (see README "Verification").

GO ?= go

.PHONY: check vet maporder build test test-dist test-procs bench bench-json bench-smoke perf-smoke faults localize hypotheses verify verify-full golden golden-full cover fuzz

check: vet maporder build test test-dist bench

# perfbench is a module of its own, outside ./..., so it is vetted
# separately: an internal API change that breaks the benchmark fails here.
# gofmt -l lists every unformatted file under the repo (perfbench included);
# any output fails the target. internal/signature has an amd64 assembly
# kernel; vetting it for arm64 builds the Go-only path every other
# architecture takes.
vet:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/signature/
	cd perfbench && $(GO) vet ./...

# maporder is the deterministic-output audit: no `for … range m` over
# anything map-typed (type-checked, so function returns, struct fields, and
# parameters count) without a `// maporder:ok <why>` annotation — map
# iteration order reaching a result struct or rendered table is exactly the
# class of bug the golden-fingerprint corpus turns into flaky failures.
maporder:
	$(GO) run ./cmd/maporder internal cmd examples

build:
	$(GO) build ./... ./examples/...

test:
	$(GO) test -race ./...

# Focused race-detector pass over the interconnect robustness and fault
# injection suites (also covered by `test`; kept addressable so the
# distributed stack can be iterated on quickly).
test-dist:
	$(GO) test -race ./internal/distributed/... ./internal/fault/...

# GOMAXPROCS matrix leg: the concurrency-heavy packages (the distributed
# stack, the experiment fan-out, the serve engine's worker pool, and the
# signature matcher whose column store concurrent sessions read) must
# pass under the race detector at both 1 and 4 procs —
# single-proc runs surface ordering assumptions that parallel runs mask, and
# vice versa.
# -count=1 defeats the test cache: GOMAXPROCS is read by the runtime, not
# the test binary, so cached results would silently satisfy both legs.
# -timeout 20m: the experiments package fans out whole simulator runs per
# test (the schedlab policy race most of all); serialized under -race at
# GOMAXPROCS=1 the suite legitimately outgrows go test's 10m default.
test-procs:
	GOMAXPROCS=1 $(GO) test -race -count=1 -timeout 20m ./internal/distributed/... ./internal/experiments/... ./internal/serve/... ./internal/signature/...
	GOMAXPROCS=4 $(GO) test -race -count=1 -timeout 20m ./internal/distributed/... ./internal/experiments/... ./internal/serve/... ./internal/signature/...

# faults is the fault-injection smoke: a tiny labeled schedule through the
# full faultanomaly pipeline — injection, retries/hedging on vs off, and
# detector precision/recall/F1 against ground truth.
faults:
	$(GO) run ./cmd/rbvrepro -scale 0.05 -run faultanomaly

# localize is the root-cause localization smoke: clean-baseline causal
# paths, a labeled fault schedule, and the per-class (tier, node,
# fault-kind) precision/recall/F1 report against ground truth.
localize:
	$(GO) run ./cmd/rbvrepro -scale 0.05 -run faultlocalize

# hypotheses is the hypothesis-lab gate: every hypotheses/*/FINDINGS.md
# must state its claim/seeds/result and pin the experiment cell its numbers
# came from; the tool re-runs each pinned cell (cheap smoke-scale cells)
# and fails on fingerprint drift, so findings cannot quietly go stale.
hypotheses:
	$(GO) run ./cmd/hypotheses

# verify re-runs the deterministic verification sweep (every registry
# experiment across the seed x scale x GOMAXPROCS grid) and diffs the
# canonical output fingerprints against the committed corpus. Any
# divergence fails with the experiment name and first divergent field.
verify:
	$(GO) run ./cmd/rbvrepro -verify

# golden regenerates the committed corpus from the current code. Run it
# only after an *intentional* output change, then review the .golden diff
# like any other code change.
golden:
	$(GO) run ./cmd/rbvrepro -golden

# verify-full checks the full-evaluation tier: every experiment at seed 1,
# scale 1 — the configuration the README quotes — against its own corpus
# (testdata/golden-full). A whole-tier run takes well under a minute since
# the kernel event-loop rewrite; CI runs it as a blocking job.
verify-full:
	$(GO) run ./cmd/rbvrepro -verify -grid full

golden-full:
	$(GO) run ./cmd/rbvrepro -golden -grid full

# cover writes a per-package coverage report and enforces the repo-level
# floor (the measured total at PR 6 was 87.7% of statements; the floor sits
# a point below so legitimate refactors don't trip it).
COVER_FLOOR ?= 87
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -20
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$total >= $(COVER_FLOOR))}" || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# fuzz runs each native fuzz target for a short smoke budget — long enough
# to exercise the mutator, short enough for CI. Findings land in
# internal/verify/testdata/fuzz/ as regression seeds.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDTW$$' -fuzztime $(FUZZTIME) ./internal/verify/
	$(GO) test -run '^$$' -fuzz '^FuzzSignatureMatch$$' -fuzztime $(FUZZTIME) ./internal/verify/
	$(GO) test -run '^$$' -fuzz '^FuzzPatternMatrix$$' -fuzztime $(FUZZTIME) ./internal/verify/
	$(GO) test -run '^$$' -fuzz '^FuzzKMedoids$$' -fuzztime $(FUZZTIME) ./internal/verify/
	$(GO) test -run '^$$' -fuzz '^FuzzFingerprintStability$$' -fuzztime $(FUZZTIME) ./internal/verify/
	$(GO) test -run '^$$' -fuzz '^FuzzStreamSpec$$' -fuzztime $(FUZZTIME) ./internal/verify/
	$(GO) test -run '^$$' -fuzz '^FuzzTopologySpec$$' -fuzztime $(FUZZTIME) ./internal/verify/

bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/distance/... ./internal/cluster/...
	$(GO) test -run '^$$' -bench 'BenchmarkPairwiseMatrix|BenchmarkIdentify|BenchmarkObsOverhead|BenchmarkServeSteadyState|BenchmarkFleetSteadyState' -benchtime=1x -benchmem .

# bench-json runs the full root benchmark sweep once (BenchmarkObsOverhead
# included via `-bench .`) and records it as a machine-readable perf
# snapshot named after the current commit — the BENCH_*.json trajectory
# future PRs diff against. The -obs flag additionally embeds fig1's
# observability run report (span totals, sampler overhead accounting).
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem . \
		| $(GO) run ./cmd/benchjson -obs fig1 -out BENCH_$$(git rev-parse --short HEAD).json

# bench-smoke is the benchmark-regression gate: the same sweep compared
# against the committed PR 6 snapshot with a 3x tolerance — generous enough
# that machine noise never trips it, tight enough that a lost fast path or
# accidental O(n^2) fails loudly. Each benchmark runs five times and
# benchjson compares the median of each dimension: a single 1x sample of a
# few-millisecond benchmark can read 20x on a busy host. Sub-100µs ns/op
# baselines are skipped as noise. The baseline carries -benchmem columns,
# so B/op and allocs/op are guarded under the same run (the
# alloc-regression leg: allocation counts are deterministic, so a blown
# pooling fast path fails here even when wall time stays inside the ns/op
# tolerance).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -count 5 -benchmem . \
		| $(GO) run ./cmd/benchjson -against BENCH_506f09d.json \
			-mem-tolerance 3 -bytes-floor 1e6 -allocs-floor 10e3 -out /dev/null

# perf-smoke runs the repository benchmark's own correctness gate on a 1 s
# untraced and a 1 s traced run of each workload: the untraced run checks
# conservation and repeat equality, the traced run also traced-vs-untraced
# equality and 1-vs-2-worker equality. The last line perfbench prints is
# its JSON result; the target fails unless every run reads "correct": true
# with 0 failed operations. About 60 s on 2 vCPUs once the benchmark
# binary is built.
PERF_WORKLOADS = serve-steady fleet-crowd repro-pipeline
perf-smoke:
	@for w in $(PERF_WORKLOADS); do for tr in 0 1; do \
		out=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace $$tr) || exit 1; \
		last=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "perf-smoke $$w trace=$$tr: $$last"; \
		printf '%s\n' "$$last" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(r.get("correct") is not True or r.get("failed") != 0)' \
			|| { echo "perf-smoke: $$w (trace $$tr) failed its correctness gate"; exit 1; }; \
	done; done
