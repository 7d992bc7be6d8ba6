GO ?= go

.PHONY: build test race vet ci gen-check bench generate loc fuzz-smoke pairs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# ci is the gate. Each leg's comment names what it holds.
ci: build vet race gen-check fuzz-smoke
	$(GO) test -race -count=2 ./internal/tune ./internal/cricket ./internal/oncrpc ./internal/xdr ./internal/gpu ./internal/cuda  # doubled run: ordering flakes in the tuners, the datapath, the record-buffer hand-off and device pins
	$(GO) test -race ./internal/fleet ./internal/cricket          # migration paths
	$(GO) test -race ./internal/serve                             # the serving scheduler
	$(GO) run ./cmd/benchharness -ablation-batch -smoke           # Hermit batch>=32 launches at >=2x the unbatched rate
	$(GO) run ./cmd/benchharness -churn-smoke -ci                 # churn storm: no leaked bytes or scheduler ghosts, digests identical
	$(GO) run ./cmd/benchharness -fleet-smoke -ci                 # kill 1 of 3 members: no lost session, digests identical, <5% routed overhead
	$(GO) run ./cmd/benchharness -migrate-smoke -ci               # live migration: delta <=50% of full, pause under the gate, clean abort
	$(GO) run ./cmd/benchharness -elastic-smoke -ci               # join/evict/heal/retire/park: one cold start per wake storm
	$(GO) run ./cmd/benchharness -transport-smoke -ci             # four transports bit-preserving, zero-copy beats sockets, shm 0 allocs
	$(GO) run ./cmd/benchharness -adaptive-smoke -ci              # adaptive window matches best static throughput, tighter tail
	$(GO) run ./cmd/benchharness -datacenter-smoke -ci            # diurnal serving trace: no lost request, digests identical, p99 TTFT in budget

# gen-check fails when a committed gen_*.go differs from what rpcgen
# emits for its .x file.
gen-check: generate
	git diff --exit-code -- '*/gen_*.go'

# fuzz-smoke runs every Fuzz* target for FUZZTIME on top of its seed
# corpus (which plain `go test` already replays), spending at most 5 s
# shrinking an input that fails.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRecordReader$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/oncrpc

# pairs is the protocol a performance claim is held to: N alternating
# runs of the unmodified benchmark at PARENT and in this tree, as the
# table CHANGES.md quotes. The environment reaches the benchmark:
# `GOMAXPROCS=1 make pairs PARENT=HEAD~1` is the one-processor row.
N ?= 10
SEED ?= 1
pairs:
	$(GO) run ./cmd/benchpairs -parent $(PARENT) -n $(N) -seed $(SEED) $(if $(WORKLOADS),-workloads $(WORKLOADS))

# loc prints the line counts ROADMAP gates on: hand-written, non-test
# Go (gen_*.go and *_test.go excluded) per internal package, for cmd/
# (all commands) and the module root, and in total.
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' ! -name 'gen_*' -exec cat {} + | wc -l; }; \
	total=0; \
	for d in internal/*/; do n=$$(count $$d -maxdepth 1); total=$$((total+n)); printf '%6d %s\n' $$n $$d; done; \
	n=$$(count cmd); total=$$((total+n)); printf '%6d %s\n' $$n cmd/; \
	n=$$(count . -maxdepth 1); total=$$((total+n)); printf '%6d %s\n' $$n ./; \
	printf '%6d %s\n' $$total total

bench:
	$(GO) run ./cmd/benchharness -all -ci
	$(GO) run ./cmd/benchharness -ablation-batch -ci -batch-json BENCH_batch.json
	$(GO) run ./cmd/benchharness -fleet-smoke -ci -fleet-json BENCH_fleet.json
	$(GO) run ./cmd/benchharness -migrate-smoke -ci -migrate-json BENCH_migrate.json
	$(GO) run ./cmd/benchharness -elastic-smoke -ci -elastic-json BENCH_elastic.json
	$(GO) run ./cmd/benchharness -transport-smoke -ci -transport-json BENCH_transport.json
	$(GO) run ./cmd/benchharness -adaptive-smoke -adaptive-json BENCH_adaptive.json
	$(GO) run ./cmd/benchharness -datacenter-smoke -datacenter-json BENCH_datacenter.json

generate:
	$(GO) run ./cmd/rpcgen -pkg cricket -o internal/cricket/gen_cricket.go internal/cricket/cricket.x
	$(GO) run ./cmd/rpcgen -pkg rpcltest -o internal/rpcltest/gen_mini.go internal/rpcltest/mini.x
	$(GO) run ./cmd/rpcgen -pkg fleet -o internal/fleet/gen_registry.go internal/fleet/registry.x
