# Developer entry points; CI runs the same commands (.github/workflows/ci.yml).

GO ?= go
GOFMT ?= gofmt

.PHONY: all build test lint bench profile

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint fails on any file gofmt would rewrite (testdata holds deliberately
# malformed fixtures), then runs go vet and lukewarmlint with its perf gate.
lint:
	@unformatted=$$($(GOFMT) -l . | grep -v '/testdata/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt -w needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/lukewarmlint ./...

# bench is the perf gate. It runs the repo benchmark (perfbench, declared in
# BENCHMARK.json) on the parent commit and on the working tree, on this host,
# and fails when the working tree is worse. On a pull request, CI checks out
# GitHub's merge commit, whose parent is the pull request's base. The parent
# is checked out in a throwaway git worktree under .bench_build/ab, removed on
# every exit. Each of 5 pairs runs every workload once per tree, back to
# back, with the pair's seed and BENCHMARK.json's run_seconds, alternating
# which tree goes first. cmd/benchdiff then holds each metric's median change
# over the pairs to BENCHMARK.json's bound: the host's speed drifts over
# minutes, and pairing cancels the drift. The run logs stay in
# .bench_build/ab/{base,head}.
bench:
	@set -eu; ab="$(CURDIR)/.bench_build/ab"; wt="$$ab/tree"; \
	cleanup() { git worktree remove --force "$$wt" >/dev/null 2>&1 || true; git worktree prune; }; \
	trap cleanup EXIT; trap 'exit 130' INT TERM; \
	rm -rf "$$ab"; git worktree prune; mkdir -p "$$ab/base" "$$ab/head"; \
	git worktree add --quiet --detach "$$wt" HEAD^; \
	secs=$$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json); \
	workloads=$$(sed -n '/"workloads"/,/]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json); \
	for i in 1 2 3 4 5; do \
		order="base head"; [ $$((i % 2)) -eq 1 ] || order="head base"; \
		for w in $$workloads; do for side in $$order; do \
			tree="$(CURDIR)"; [ $$side = head ] || tree="$$wt"; \
			echo "bench: pair $$i/5 $$w $$side"; \
			(cd "$$tree" && bash perfbench/run.sh --workload $$w --seed $$i --seconds $$secs --trace 0) \
				> "$$ab/$$side/$$w-$$i.out" || true; \
		done; done; \
	done; \
	$(GO) run ./cmd/benchdiff BENCHMARK.json "$$ab/base" "$$ab/head"

# profile captures CPU and heap profiles of the simulator's hot loop (the
# throughput benchmark); inspect with `go tool pprof cpu.prof`. The same
# seams exist on the CLI: `lukewarm -cpuprofile cpu.prof <experiment>`.
profile:
	$(GO) test -run '^$$' -bench SimulationThroughput -benchtime 20x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "wrote cpu.prof mem.prof (go tool pprof cpu.prof)"
