# Standard targets for the lockdown reproduction.

GO ?= go

.PHONY: all build vet test test-short bench-check race lint lint-golangci lint-custom fuzz-smoke fault-smoke daemon-smoke cache-smoke append-smoke ci bench cover figures figures-full examples clean

BENCH_JSON ?= BENCH_$(shell date +%F).json

all: build vet test

build:
	$(GO) build ./...

vet:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# bench/ is its own module (repro/bench, replace repro => ../), invisible
# to the root ./... patterns: vet and short-test it so an internal API
# change cannot silently break lockbench (CI job bench-module).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Full race pass at four scheduler procs so the goroutine-owning code —
# the replay's decode producer, the generator's day producer and its
# plan/build workers, the tree digest's workers and the figure worker
# pools — sees real interleavings. -short keeps the generator-bound
# packages inside the time budget; the concurrency-heavy packages then
# rerun un-short so nothing the -short matrix narrows escapes the
# detector. The last pass repeats the tests that drive those goroutines
# (and seal-while-serving snapshot readers) for more interleavings.
race:
	GOMAXPROCS=4 $(GO) test -race -short ./...
	GOMAXPROCS=4 $(GO) test -race -count=1 \
		./internal/core ./internal/obs ./internal/dhcp ./internal/dnssim ./internal/logsink \
		./internal/trace
	GOMAXPROCS=4 $(GO) test -race -count=10 \
		-run 'TreeDigest|ReplaySinkPanicUnwinds|TailStopMidDayNoLeak|ReplayStrictErrorPrefix|GoldenStream|RunDaysUnwindsOnSinkPanic|SealWhileIngestConcurrentReaders' \
		./internal/stagecache ./internal/logsink ./internal/trace ./internal/core

# Standard linters plus the repository's custom invariant analyzers.
lint: lint-golangci lint-custom

# Prefer golangci-lint (same config CI uses); fall back to go vet when the
# binary isn't installed so the target still catches the worst offenders.
lint-golangci:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "golangci-lint not installed; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

# cmd/lintlock enforces the privacy-boundary, determinism, obs-nil-guard,
# and hot-path-error invariants plus the concurrency protocols
# (atomiconly, goroutineowner); the second pass audits
# every //lintlock:ignore directive for bare or stale suppressions (see
# README "Static analysis").
lint-custom:
	$(GO) run ./cmd/lintlock ./...
	$(GO) run ./cmd/lintlock -suppressions ./...

# Short negative-input fuzz pass over the external-format parsers and
# the pipeline checkpoint and dataset decoders;
# CI runs this on every push (see the fuzz-smoke job).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 30s ./internal/dnswire
	$(GO) test -run '^$$' -fuzz FuzzConnReader -fuzztime 30s ./internal/zeeklog
	$(GO) test -run '^$$' -fuzz FuzzLeaseLine -fuzztime 30s ./internal/dhcp
	$(GO) test -run '^$$' -fuzz FuzzHTTPEntry -fuzztime 30s ./internal/httplog
	$(GO) test -run '^$$' -fuzz FuzzDNSLogReader -fuzztime 30s ./internal/dnssim
	$(GO) test -run '^$$' -fuzz FuzzFieldBytes -fuzztime 30s ./internal/zeeklog
	$(GO) test -run '^$$' -fuzz FuzzRestoreCheckpoint -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDecodeDataset -fuzztime 30s ./internal/core

# Corruption-replay smoke: generate a 5%-scale dataset, replay it with 0.1%
# seeded corruption under the skip policy, and audit the guard's books
# (accepted + dropped == offered) from its end-of-run line. CI additionally
# diffs the figure-CSV shapes against a clean replay (see the fault-smoke
# job); the exhaustive differential harness is
# `go test ./internal/faultline -run TestDifferential`.
fault-smoke:
	$(GO) run ./cmd/tracegen -scale 0.05 -out faultlogs
	$(GO) run ./cmd/lockdown -logs faultlogs -quiet -out fault-skip \
		-key 6c6f636b646f776e2d6661756c742d736d6f6b65 \
		-fault-inject 0.001 -fault-seed 7 -fault-policy skip 2>fault-skip.log
	cat fault-skip.log
	grep 'fault guard: policy=skip offered=' fault-skip.log | awk '{ \
		for (i = 1; i <= NF; i++) { \
			split($$i, kv, "="); \
			if (kv[1] == "offered") off = kv[2]; \
			if (kv[1] == "accepted") acc = kv[2]; \
			if (kv[1] == "dropped") drop = kv[2]; \
		} \
	} END { \
		if (off == "" || acc + drop != off) { \
			print "guard accounting broken: accepted " acc " + dropped " drop " != offered " off; \
			exit 1; \
		} \
	}'

# Service-mode smoke: generate a 5%-scale rotated dataset (two weeks
# around the shutdown), mark it complete, run the batch CLI over it, then
# start lockdownd on the same dataset and key, poll /v1/epoch until the
# final epoch is published, diff the queried figure CSVs and report
# against the batch files (must be byte-identical), and check that
# SIGTERM shuts the daemon down with exit code 0.
daemon-smoke:
	$(GO) run ./cmd/tracegen -scale 0.05 -rotate -days 36:50 -out daemonlogs
	touch daemonlogs/COMPLETE
	$(GO) run ./cmd/lockdown -logs daemonlogs -quiet -out daemon-batch \
		-key 6c6f636b646f776e642d736d6f6b652d6b6579
	$(GO) build -o bin/lockdownd ./cmd/lockdownd
	sh scripts/daemon_smoke.sh bin/lockdownd daemonlogs daemon-batch \
		6c6f636b646f776e642d736d6f6b652d6b6579 0.05

# Stage-cache smoke: a cold 5%-scale run populates the content-addressed
# cache, a warm rerun must hit every stage, emit byte-identical outputs,
# and clear a 3x wall-clock gate, and a rerun after the cache's figures
# entry is deleted must reuse the cached stats while recomputing only
# figures (see scripts/cache_smoke.sh and the ci cache-smoke job; the go
# test variant is cmd/lockdown/cache_test.go).
cache-smoke:
	$(GO) build -o bin/lockdown ./cmd/lockdown
	sh scripts/cache_smoke.sh bin/lockdown cache-smoke-work \
		6c6f636b646f776e2d6661756c742d736d6f6b65 0.05

# One-day-append smoke: seed per-day checkpoints with a cached run over a
# 15-day dataset's 14-day prefix, append the final day, and require the
# rerun to replay exactly one day (statsday: replayed=1 misses=1 hits=1),
# emit outputs byte-identical to a cache-free full run, and land within a
# fixed multiple of the full run's single-day cost (see
# scripts/append_smoke.sh and the ci append-smoke job; the go test variant
# is cmd/lockdown/statsday_test.go).
append-smoke:
	$(GO) build -o bin/lockdown ./cmd/lockdown
	$(GO) build -o bin/tracegen ./cmd/tracegen
	sh scripts/append_smoke.sh bin/lockdown bin/tracegen append-smoke-work \
		6c6f636b646f776e2d6661756c742d736d6f6b65 0.05

ci: build vet test race lint

# Go micro-benchmarks plus a machine-readable end-to-end bench report that
# cmd/benchdiff can gate on.
bench:
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/lockdown -scale 0.05 -quiet -out results-bench \
		-bench-json $(BENCH_JSON)
	@echo "wrote $(BENCH_JSON)"

cover:
	$(GO) test -cover ./internal/...

# Regenerate every figure at 5% scale into results/.
figures:
	$(GO) run ./cmd/lockdown -scale 0.05 -out results

# Paper-scale run (148 s and 1.63 GB peak RSS on a 2-vCPU host).
figures-full:
	$(GO) run ./cmd/lockdown -scale 1.0 -out results_full

examples:
	$(GO) run ./examples/packets
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/subpopulations
	$(GO) run ./examples/socialmedia
	$(GO) run ./examples/gaming
	$(GO) run ./examples/counterfactual

# results_full/ is not listed: it holds the committed paper-scale CSVs
# (figures-full rewrites them in place).
clean:
	rm -rf results results-bench faultlogs fault-skip \
		fault-skip.log daemonlogs daemon-batch cache-smoke-work \
		append-smoke-work bin
