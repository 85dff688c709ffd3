# Developer entry points. `make check` is the tier-1 gate: vet, build,
# rlibm-lint, and the full test suite under the race detector (the parallel
# pipeline makes -race part of the contract, not an optional extra). Each
# stage announces itself and fails fast so a red gate names its stage.

GO ?= go

.PHONY: check check-fault check-oracle check-store check-serve check-campaign check-perfbench fuzz-fp test race bench bench-parallel bench-pipeline bench-obs bench-eval bench-serve vet build lint lint-json report

check:
	@echo '== vet =='
	@$(MAKE) --no-print-directory vet
	@echo '== build =='
	@$(MAKE) --no-print-directory build
	@echo '== lint =='
	@$(MAKE) --no-print-directory lint
	@echo '== check-fault =='
	@$(MAKE) --no-print-directory check-fault
	@echo '== check-oracle =='
	@$(MAKE) --no-print-directory check-oracle
	@echo '== check-store =='
	@$(MAKE) --no-print-directory check-store
	@echo '== check-serve =='
	@$(MAKE) --no-print-directory check-serve
	@echo '== check-campaign =='
	@$(MAKE) --no-print-directory check-campaign
	@echo '== race =='
	@$(MAKE) --no-print-directory race
	@echo '== check: all stages passed =='

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# rlibm-lint enforces the repo-specific determinism, precision and
# concurrency contracts that go vet cannot see (see internal/analysis).
lint:
	$(GO) run ./cmd/rlibm-lint ./...

# Machine-readable findings (including interprocedural witness paths) for
# CI artifact upload and external tooling. Exit status is the linter's, so
# a red tree still fails; the JSON lands in rlibm-lint.json either way.
lint-json:
	$(GO) run ./cmd/rlibm-lint -json ./... > rlibm-lint.json

# The fault-injection matrix: every site × occurrence × worker count must
# recover bit-identically or fail with a typed fault.Error, and never leave
# the artifact cache corrupt (see internal/fault and DESIGN.md §8).
check-fault:
	$(GO) test -race -run 'Fault|Plan|Sites|Panic|Corrupt|Cancel|Audit|Error' \
		./internal/fault/ ./internal/cli/ ./internal/pipeline/ ./internal/parallel/

# The oracle pin: every tensorfloat32 input of every function, in all five
# modes, checked by rlibm-check against the shipped internal/libm tables.
# Those tables were certified exhaustively by an oracle without the
# double-double first step, so any disagreement here is an oracle that
# changed its answers (or a table that changed), and fails the gate.
ORACLE_FUNCS = ln log2 log10 exp exp2 exp10 sinh cosh sinpi cospi
check-oracle:
	$(eval ORACLE_DIR := $(shell mktemp -d))
	$(GO) build -o $(ORACLE_DIR)/rlibm-check ./cmd/rlibm-check
	status=0; \
	  for fn in $(ORACLE_FUNCS); do \
	    $(ORACLE_DIR)/rlibm-check -func $$fn -format F19,8 -no-cache || status=1; \
	  done; \
	  rm -rf $(ORACLE_DIR); \
	  test $$status -eq 0

# The store/distribution gate: every backend (disk, memory, remote
# loopback) must generate bit-identical coefficients, a two-process
# shard-claim run must assemble byte-identically to a solo run, and every
# injected remote/claim fault must recover or fail typed (DESIGN.md §12).
# STORE_WORKERS overrides the distribution scenarios' worker count and
# STORE_FAULTS=off restricts the run to the fault-free scenarios — the CI
# loopback matrix drives both; RLIBM_STORE_ARTIFACTS (a directory) makes
# each scenario dump its post-run audit verdict and store event log there.
STORE_WORKERS ?= 2
STORE_FAULTS ?= on
STORE_RUN_on  = TestBackend|TestTwoProcessShardClaim|TestShard|TestSolveShard|TestEvictingStore|TestRemote|TestWire|TestServe|TestEventLog|TestSetFaults|TestRunRejectsEmptyKey|TestRunThroughRemote
STORE_RUN_off = TestBackendBitIdentity|TestBackendMatrixColdWarm|TestTwoProcessShardClaim|TestShardHeartbeat|TestShardDeadPeer|TestShardLivePeer|TestSolveShardDeterminism|TestSolveShardDeadPeer|TestEvictingStoreBudgetAndLRUOrder|TestEvictingStoreNeverEvictsClaims|TestEventLogConcurrency|TestWireRoundTrip|TestRunThroughRemoteMatchesDisk
check-store:
	RLIBM_STORE_WORKERS=$(STORE_WORKERS) $(GO) test -race -timeout 15m \
		-run '$(STORE_RUN_$(STORE_FAULTS))' ./internal/pipeline/ ./internal/cli/

# The serving gate: drain completes admitted requests bit-identically,
# overload sheds typed 429s with no goroutine leaks, hot reload never
# serves a mixed generation, and both endpoints answer libm's exact bits
# (DESIGN.md §13). Loopback only; -race is part of the contract.
check-serve:
	$(GO) test -race -timeout 10m ./internal/serve/

# The campaign gate, in two layers. First the in-process acceptance tests
# (peer-split byte-identity, killed-peer restart, warm resume, eviction
# pressure). Then the real thing: two rlibm-campaign worker processes
# against an rlibm-store peer with a deliberately tiny eviction budget —
# all race-instrumented — must report a CORRECT sweep, and rerunning the
# identical command against the still-warm store must report a resumed
# campaign. BENCH_campaign.json and campaign_report.json land in the
# git-ignored campaign-out/ for CI to upload, so the gate leaves the
# checked-in copies alone (DESIGN.md §14).
check-campaign:
	$(GO) test -race -timeout 10m ./internal/campaign/
	$(eval CAMPAIGN_DIR := $(shell mktemp -d))
	$(GO) build -race -o $(CAMPAIGN_DIR)/rlibm-store ./cmd/rlibm-store
	$(GO) build -race -o $(CAMPAIGN_DIR)/rlibm-campaign ./cmd/rlibm-campaign
	mkdir -p campaign-out
	$(CAMPAIGN_DIR)/rlibm-store -listen 127.0.0.1:8095 -mem -max-bytes 4096 \
	  -pin-stages campaign-manifest & \
	  srv=$$!; \
	  sleep 1; \
	  $(CAMPAIGN_DIR)/rlibm-campaign -store tcp://127.0.0.1:8095 -peers 2 \
	    -funcs cospi -bits 12 -min-bits 10 -levels 10,12 \
	    -out campaign-out/BENCH_campaign.json -campaign-report campaign-out/campaign_report.json; \
	  first=$$?; \
	  $(CAMPAIGN_DIR)/rlibm-campaign -store tcp://127.0.0.1:8095 -peers 2 \
	    -funcs cospi -bits 12 -min-bits 10 -levels 10,12 \
	    -out '' -campaign-report '' > $(CAMPAIGN_DIR)/resume.out 2>&1; \
	  second=$$?; \
	  cat $(CAMPAIGN_DIR)/resume.out; \
	  grep -q 'campaign (resumed)' $(CAMPAIGN_DIR)/resume.out; resumed=$$?; \
	  kill -TERM $$srv; wait $$srv; drained=$$?; \
	  rm -rf $(CAMPAIGN_DIR); \
	  test $$first -eq 0 && test $$second -eq 0 && test $$resumed -eq 0 && test $$drained -eq 0

# The benchmark's own tests. _perfbench is a separate Go module, so the
# root `go test ./...` never reaches it: BENCHMARK.json must match the
# metric table, corrupted tables and responses must count as failed, and
# the traced counts must repeat across runs and worker counts. Runs with
# the environment of _perfbench/run.sh — build cache and temporary files
# under .bench_build/, no module proxy, no workspace.
PERFBENCH_BUILD = $(CURDIR)/.bench_build
check-perfbench:
	mkdir -p $(PERFBENCH_BUILD)/gocache $(PERFBENCH_BUILD)/tmp $(PERFBENCH_BUILD)/gopath
	cd _perfbench && GOCACHE=$(PERFBENCH_BUILD)/gocache GOPATH=$(PERFBENCH_BUILD)/gopath \
		GOTMPDIR=$(PERFBENCH_BUILD)/tmp TMPDIR=$(PERFBENCH_BUILD)/tmp \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= $(GO) test ./...

# Coverage-guided fuzzing of fp.Format.FromFloat64 against FromBig's
# big.Int rounding: any double, any supported format, any mode. The seeds
# in internal/fp/testdata/fuzz/FuzzFromFloat64 also run in every plain
# `go test`.
fuzz-fp:
	$(GO) test -run '^$$' -fuzz '^FuzzFromFloat64$$' -fuzztime 20s ./internal/fp/

test:
	$(GO) test ./...

# The clarkson suite alone runs ~9 min under -race on one core; give the
# binary headroom over go test's 10-minute default so a loaded machine
# doesn't flake the gate.
race:
	$(GO) test -race -timeout 30m ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Serial-vs-parallel scaling of the enumeration and verification pipelines.
bench-parallel:
	$(GO) test -bench 'Enumerate|VerifyExhaustive' -run '^$$' .

# Cold vs warm artifact-cache cost of the staged pipeline (the numbers
# behind BENCH_pipeline.json).
bench-pipeline:
	$(GO) test -bench 'Pipeline' -run '^$$' -benchtime 50x -count 3 .

# Observability overhead: the same pipeline with the obs layer disabled vs
# a live recorder (the numbers behind BENCH_obs.json).
bench-obs:
	$(GO) test -bench 'Pipeline' -run '^$$' -benchtime 50x -count 3 .
	$(GO) test -bench 'PipelineWarm' -run '^$$' -benchtime 500x -count 5 .

# Serving-layer cost: per-call Result.Eval vs the compiled batch kernel of
# internal/eval, truncated vs full evaluation (the numbers behind
# BENCH_eval.json).
bench-eval:
	$(GO) test -bench '^BenchmarkEval$$' -run '^$$' -benchtime 3000x -count 3 .

# Serving-service latency: start rlibm-serve on loopback, drive it with the
# closed-loop generator over the binary bulk endpoint, write p50/p90/p99
# into BENCH_serve.json, then SIGTERM the server and require a clean drain
# (the numbers behind BENCH_serve.json).
bench-serve:
	$(eval SERVE_DIR := $(shell mktemp -d))
	$(GO) build -o $(SERVE_DIR)/rlibm-serve ./cmd/rlibm-serve
	$(GO) build -o $(SERVE_DIR)/rlibm-bench-serve ./cmd/rlibm-bench-serve
	$(SERVE_DIR)/rlibm-serve -listen 127.0.0.1:8093 -bulk-listen 127.0.0.1:8094 & \
	  srv=$$!; \
	  sleep 1; \
	  $(SERVE_DIR)/rlibm-bench-serve -addr 127.0.0.1:8094 -bulk \
	    -func exp2 -format F16,8 -batch 256 -concurrency 4 -duration 5s \
	    -out BENCH_serve.json; \
	  bench=$$?; \
	  kill -TERM $$srv; wait $$srv; drained=$$?; \
	  rm -rf $(SERVE_DIR); \
	  test $$bench -eq 0 && test $$drained -eq 0

# Generate a small function with observability on and show the run report:
# the span tree renders to stderr (-v) and report.json lands next to the
# throwaway cache.
report:
	$(eval REPORT_DIR := $(shell mktemp -d))
	$(GO) run ./cmd/rlibm-gen -func cospi -levels F10,8:F12,8 \
		-cache-dir $(REPORT_DIR) -report -v
	@echo '== report.json =='
	@cat $(REPORT_DIR)/report.json
	@rm -rf $(REPORT_DIR)
