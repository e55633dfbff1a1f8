# Verification tiers. `make verify` is the tier-1 gate every change must
# pass: build, the full test suite, and the domain-invariant lint tier,
# then vet and self-test of the _perfbench benchmark module. Its leading
# underscore keeps it out of ./..., so without that step a change that
# deletes an API the benchmark uses would pass here and break only the
# benchmark run.
# `make race` adds vet plus the full suite under the race detector, which
# exercises the parallel collection engine and the Lab's bounded
# singleflight cache under real contention. `make lint` first fails on any
# file `gofmt -l .` lists, as CI's gofmt step does (gofmt -l exits 0, so
# the guard turns its output into a failure), then runs go vet (`go test`
# runs only part of vet, and not copylocks, which catches copied mutexes
# and atomics), then cmd/mcdvfsvet, the stdlib-only analyzer suite
# enforcing determinism, context discipline, goroutine joins and error
# flow (see DESIGN.md §7). mcdvfsvet loads packages by running
# `go list -deps -export` with the go on PATH, which must be the
# toolchain that builds it (DESIGN.md §7.1).

GO ?= go

.PHONY: verify race lint bench-vet bench-sim bench-serve loadtest loadtest-cluster fuzz all

# Benchmark iteration budget for the recorded tiers (bench-sim,
# bench-serve). Counted iterations keep the records comparable across
# machines of different speeds; raise locally for tighter numbers.
BENCHTIME ?= 5x

all: verify

verify: lint
	$(GO) build ./... && $(GO) test ./...
	cd _perfbench && $(GO) vet . && $(GO) test .

lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/mcdvfsvet ./...

race:
	$(GO) vet ./... && $(GO) test -race ./...

# Daemon smoke tier: the in-process load harness (8 zipfian clients, 5s)
# against mcdvfsd's full stack — zero 5xx, coalescing absorbing grid
# demand, cached /v1/optimal p99 under 10ms (see DESIGN.md §8).
loadtest:
	$(GO) test ./internal/serve -run TestLoadSmoke -count=1 -v -args -loadsmoke=5s

# Cluster smoke tier: the full internal/cluster suite — 3-node harness,
# 64-client cluster-wide coalescing, local fallback past a shedding,
# unreachable, wedged, late or truncating owner, relay from an owner that
# answers within ProxyTimeout, two-phase drain — under the race detector
# (see DESIGN.md §9).
loadtest-cluster:
	$(GO) test -race ./internal/cluster -count=1

# Differential-fuzz smoke tier: FUZZTIME each of three oracles, each
# starting from its committed seed corpus. FuzzBatchVsScalar holds the
# columnar batch engine bit-identical to the retained scalar reference
# (internal/sim/testdata/fuzz/FuzzBatchVsScalar); FuzzGridJSON then holds
# the grid encoder, trace.Grid.AppendJSON, byte-identical to encoding/json
# (internal/trace/testdata/fuzz/FuzzGridJSON); FuzzAppendFloat holds the
# encoder's shortest-float kernel byte-identical to encoding/json's float
# encoder on any finite float64 bits
# (internal/trace/testdata/fuzz/FuzzAppendFloat). New crashers land
# in those directories; CI uploads them as artifacts so a red run ships
# its repro.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzBatchVsScalar$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzGridJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzAppendFloat$$' -fuzztime $(FUZZTIME)

# Simulator-core benchmark record: the columnar batch engine (serial and
# parallel full-grid collection) against the retained scalar reference,
# plus the per-sample wrapper, captured as BENCH_sim.json. CI diffs this
# record against the base branch and fails >10% regressions of the
# collection hot path (see .github/workflows/ci.yml).
bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkCollect|BenchmarkGridCollection|BenchmarkSimulateSample' \
		-benchtime $(BENCHTIME) -benchmem . \
		| $(GO) run ./cmd/benchjson -out BENCH_sim.json

# Daemon benchmark record: memoized /v1/optimal, cached /v1/grid, and
# forced-recollection /v1/grid through mcdvfsd, the cluster scaling
# record (BenchmarkClusterGrid at 1/3/5 nodes — aggregate cache capacity
# vs a thrashing single node), the proxy hop on a 2 MB grid body
# (BenchmarkClusterGridProxied, matched by the same pattern), and the grid
# encoder alone on bzip2's coarse and fine grids (BenchmarkAppendJSON),
# captured as BENCH_serve.json.
bench-serve:
	$(GO) test ./internal/serve ./internal/cluster ./internal/trace -run '^$$' \
		-bench 'BenchmarkServe|BenchmarkClusterGrid|BenchmarkAppendJSON' \
		-benchtime $(BENCHTIME) -benchmem \
		| $(GO) run ./cmd/benchjson -out BENCH_serve.json

# Analyzer benchmark record: one whole mcdvfsvet run over ./...
# (BenchmarkVet), its go list call included, captured as BENCH_vet.json
# for regression tracking.
bench-vet:
	$(GO) test ./internal/analysis -run '^$$' -bench 'BenchmarkVet' -benchmem \
		| $(GO) run ./cmd/benchjson -out BENCH_vet.json
