# Developer entry points. CI runs the same targets (.github/workflows/ci.yml).

# bench-json pipes `go test` into a converter; pipefail keeps a failing
# benchmark run failing the target (and the CI job) instead of being
# masked by the converter's exit status.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go
# bench-json writes an uncommitted, git-ignored report; committed
# BENCH_PR*.json trajectory points are never overwritten by default.
BENCH_JSON ?= bench.json
# bench-diff compares against the last committed trajectory point.
BENCH_BASE ?= BENCH_PR10.json

.PHONY: build test test-short race bench bench-json bench-diff smoke-presets profile loc clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -short -race ./...

# Full benchmark pass (slow; CI uses bench-json's smoke settings).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-json runs every benchmark once (smoke mode) and converts the
# stream into a machine-readable report, the perf-trajectory artifact CI
# archives per run. Override BENCHTIME/BENCH_JSON for longer local runs:
#
#	make bench-json BENCHTIME=2s BENCH_JSON=bench-local.json
BENCHTIME ?= 1x
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -benchmem ./... \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson > $(BENCH_JSON)
	@echo "wrote $(BENCH_JSON)"

# bench-diff prints per-benchmark deltas between the previous committed
# report and the current one (run `make bench-json` first to produce
# it). Report-only: regressions are flagged in the output but do not
# fail the target — smoke-mode ns/op is noisy; trust the allocs/op
# column. For a blocking local check: go run ./cmd/benchdiff -fail ...
bench-diff:
	$(GO) run ./cmd/benchdiff $(BENCH_BASE) $(BENCH_JSON)

# smoke-presets runs the large-scale sweep presets (million-qps,
# cluster, sharded, faulty-cluster, hour-long) at tiny size — 1 repetition, a few
# thousand samples — so CI proves the preset paths end to end on every commit
# without paying the full-size minutes. Full size is simply the same
# commands without the -runs/-samples overrides. The -spec lines do the
# same for the declarative workload-spec front door: the presets' own
# spec files and a phase-program spec, through both CLIs. The last two
# lines assert that bad invocations fail (non-zero exit) before any
# simulation starts.
smoke-presets:
	$(GO) run ./cmd/repro -experiment million-qps -runs 1 -samples 2000
	$(GO) run ./cmd/repro -experiment cluster -runs 1 -samples 2000
	$(GO) run ./cmd/repro -experiment sharded -runs 1 -samples 2000
	$(GO) run ./cmd/repro -experiment hour-long -runs 1 -samples 2000
	$(GO) run ./cmd/repro -experiment faulty-cluster -runs 1 -samples 2000
	$(GO) run ./cmd/repro -spec examples/cluster.yaml -runs 1 -samples 2000
	$(GO) run ./cmd/repro -spec examples/sharded.yaml -runs 1 -samples 2000
	$(GO) run ./cmd/repro -spec examples/phases-spike.yaml -runs 1 -samples 2000
	$(GO) run ./cmd/repro -spec examples/faulty-cluster.yaml -runs 1 -samples 2000
	$(GO) run ./cmd/labsim -preset million-qps -runs 1 -samples 2000
	$(GO) run ./cmd/labsim -preset sharded -runs 1 -samples 2000
	$(GO) run ./cmd/labsim -preset cluster -runs 1 -samples 2000
	$(GO) run ./cmd/labsim -preset faulty-cluster -runs 1 -samples 2000
	$(GO) run ./cmd/labsim -preset hour-long -runs 1 -samples 2000
	$(GO) run ./cmd/labsim -spec examples/onoff-sessions.yaml -runs 1 -samples 2000
	$(GO) run ./cmd/labsim -spec examples/straggler.yaml -runs 1 -samples 2000
	! $(GO) run ./cmd/repro -runs -1
	! $(GO) run ./cmd/labsim -replicas 2 -router random

# profile captures CPU and allocation profiles of a reference sweep: the
# request-path benchmark, which exercises the whole hot path (engine event
# loop, loadgen state machines, netmodel delivery, service tiers, hw
# cores). How to read the output:
#
#	go tool pprof -top cpu.pprof                      # hottest functions by CPU
#	go tool pprof -top -sample_index=alloc_objects mem.pprof   # who still allocates
#	go tool pprof -http=:8080 cpu.pprof               # flame graph in a browser
#
# After the PR 4 pooling refactor the alloc profile of the typed path
# should show only per-run setup (machines, RNG splits, recorders); any
# per-request entry appearing there is a regression — cross-check with
# BenchmarkRequestPathAllocs and the sim package's zero-alloc test.
#
# Sharded runs are label-attributed: every shard worker carries the
# pprof label shard=<i> (sim/shard.go), and the cascade and mailbox
# paths are named frames (wheel.cascadeChain, ShardSet.drainInbox,
# epochBarrier.wait), so a sharded profile splits cleanly into
# barrier / mailbox / cascade / event-execution buckets:
#
#	make profile PROFILE_BENCH=BenchmarkShardedRun4
#	go tool pprof -tagfocus shard=1 cpu.pprof      # one shard's time
#	go tool pprof -focus 'cascadeChain|drainInbox|epochBarrier' -top cpu.pprof
PROFILE_BENCH ?= BenchmarkRequestPathAllocs/typed
profile:
	$(GO) test ./internal/loadgen -run '^$$' -bench '$(PROFILE_BENCH)' \
		-benchtime 3s -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof mem.pprof (see comments above this target for how to read them)"

# loc prints the Go line counts ROADMAP tracks: non-test and test lines,
# excluding the nested perfbench module. Report-only.
GO_FILES = find . -name '*.go' -not -path './perfbench/*' -not -path './.*'
loc:
	@printf 'non-test Go lines (excl. perfbench/): %s\n' "$$($(GO_FILES) ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
	@printf 'test Go lines (excl. perfbench/):     %s\n' "$$($(GO_FILES) -name '*_test.go' -print0 | xargs -0 cat | wc -l)"

clean:
	rm -f $(BENCH_JSON) cpu.pprof mem.pprof loadgen.test
