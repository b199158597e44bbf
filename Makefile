# Development entry points. CI (.github/workflows/ci.yml) runs the same
# targets — `make ci` locally reproduces the full gate, and the
# individual targets mirror the workflow's jobs one to one.

GO ?= go

# Benchmarks that feed the committed baselines (BENCH_tensor.json,
# BENCH_wire.json). BenchmarkKernel* covers the microkernel layer
# (internal/tensor/kernels), whose dispatch and generic arms both land
# in the baseline with their GFLOPS/GB-per-s custom metrics. The next
# four time the platform's per-round weight update at the repository
# benchmark's MLP size: its passes one by one (input-layer backward,
# clip, SGD step) and whole, unfused and through nn.BackwardStep.
# BenchmarkReLU and BenchmarkMaxPool2D time the conv stack's data-
# movement layers at the VGG-lite benchmark's activation shapes (and,
# under /eval/, the serving tier's eval forward at 8 rows), and
# BenchmarkConvTrainStep its three conv layers' forward + backward.
BENCH_PATTERN ?= BenchmarkMatMul|BenchmarkMatMulTA|BenchmarkMatMulTB|BenchmarkIm2Col$$|BenchmarkConvForward|BenchmarkSplitRound|BenchmarkCodec|BenchmarkKernel|BenchmarkDenseBackwardInputLayer|BenchmarkInputLayerUpdate|BenchmarkClipGrads|BenchmarkSGDStep|BenchmarkReLU|BenchmarkMaxPool2D|BenchmarkConvTrainStep

# Packages with concurrency worth racing: the session engine (one
# goroutine per party, plus replication streams and rejoin brokers), the
# transports, the simulated-WAN transport (including the
# 100-platform scale-out soak), the parameter-exchange baselines (sync
# SGD and FedAvg, one stack in internal/paramserver, whose suite holds
# the reference-differential test), the parallel tensor kernels, the
# replication tier's write-ahead log, the multi-tenant serving tier
# (scheduler + batchers + shared gate) and the experiment runners that
# drive real goroutine-per-party sessions (including the
# relaxed-consistency differential suite), and the nn layers, whose
# Conv2D fans samples out over layer-owned scratch.
RACE_PKGS = ./internal/core/... ./internal/transport/... ./internal/simnet/... ./internal/paramserver/... ./internal/tensor/... ./internal/nn/... ./internal/wal/... ./internal/serve/... ./internal/experiment/... ./internal/dataset/...

# Minimum statement coverage the cover target enforces for the engine's
# load-bearing packages. The scenario-matrix, simnet and WAL suites
# lifted these; the gate keeps them from silently eroding. Raise the
# floors when coverage rises, never lower them to merge.
COVER_MIN_core       = 82
COVER_MIN_transport  = 87
COVER_MIN_simnet     = 90
COVER_MIN_wal        = 85
COVER_MIN_serve      = 88
COVER_MIN_paramserver = 82

.PHONY: test bench-check benchmark bench bench-save bench-save-tensor bench-smoke bench-compare bench-save-serve bench-save-consistency load-test chaos-test fuzz-smoke cover vuln race vet fmt-check purego-test cross-arm64 ci

# The serving batcher's flush decision (idle slot or held batch), its
# wake-ups and its hand-off to compute lanes depend on goroutine timing,
# so their tests also run three times on one core. The training
# engine's determinism contract (the round-mode digest table, both
# modes' wire order, concat's fused steps and the compute gate) must
# also hold at one core, where the parallel kernels take their serial
# path. So must the pins on what every session starts from: synthetic
# data and fresh weights, and the block draws behind them.
test:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	GOMAXPROCS=1 $(GO) test -count=3 -run 'Batch|Flush|IdleSlot|Overload|Expired|Lane|Wake' ./internal/serve/
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestRoundModeDigests|TestServerRoundRobinOrdering|TestConcat|TestComputeGate' ./internal/core/
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestSkipNormMatchesNorm|TestNormFloat32sMatchesNorm|TestSynthCIFARPins|TestFreshModelPins|TestFillNormalMatchesSerial' ./internal/rng/ ./internal/dataset/ ./internal/models/ ./internal/tensor/

# The repository benchmark (BENCHMARK.json) is a Go module of its own
# under bench/ (`replace medsplit => ../`), so `go build ./...` and
# `go test ./...` from the root neither compile nor run it. bench-check
# does both — its tests include a short smoke run of all seven
# workloads with the weight-digest and response checks on — and is the
# gate that catches a change the benchmark would reject as incorrect.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# The repository benchmark itself, as the driver calls it. ARGS goes
# through to the program, e.g.
# `make benchmark ARGS='--workload train_mlp_tcp --seed 1 --seconds 10 --trace 0'`;
# with none it prints the human report for every workload.
benchmark:
	bash bench/run.sh $(ARGS)

race:
	$(GO) test -race $(RACE_PKGS)

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

# The pure-Go arm of the kernel dispatch: build everything and run the
# numeric packages with the `purego` tag, which compiles out all
# assembly. The differential tests then assert the generic reference
# alone, proving the fallback is complete, and the round-mode digest
# table checks the same bits end to end through every scheduler
# (mirrors CI's purego job).
purego-test:
	$(GO) build -tags purego ./...
	$(GO) test -tags purego ./internal/tensor/... ./internal/compress/ ./internal/nn/ ./internal/rng/ ./internal/dataset/ ./internal/models/
	$(GO) test -tags purego -run TestRoundModeDigests ./internal/core/

# Cross-compile the full module for arm64 and vet the kernel layer,
# which checks the NEON assembly against its Go declarations (asmdecl).
# No arm64 hardware in CI, so execution coverage for that path comes
# from the generic reference the differential tests pin down; this
# target keeps the NEON leg building and ABI-correct.
cross-arm64:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/...

# Short coverage-guided runs of the binary decoders that face untrusted
# bytes: the tensor payload decoder (wire), the session snapshot decoder
# and the replication step-record decoder (core; the follower stream
# and the WAL share its format) and the write-ahead log reader (wal,
# which must also survive torn/corrupt segment files on disk). Mirrors
# CI's fuzz-smoke job; seconds per target keeps the gate fast while
# still shaking out fresh panics.
fuzz-smoke:
	$(GO) test -run NONE -fuzz 'FuzzDecodeTensors' -fuzztime 10s ./internal/wire/
	$(GO) test -run NONE -fuzz 'FuzzDecodeSnapshot' -fuzztime 10s ./internal/core/
	$(GO) test -run NONE -fuzz 'FuzzDecodeStepRecord' -fuzztime 10s ./internal/core/
	$(GO) test -run NONE -fuzz 'FuzzWALDecode' -fuzztime 10s ./internal/wal/
	$(GO) test -run NONE -fuzz 'FuzzSelectKernels' -fuzztime 10s ./internal/tensor/kernels/
	$(GO) test -run NONE -fuzz 'FuzzBoxMuller' -fuzztime 10s ./internal/tensor/kernels/
	@echo fuzz-smoke ok

# Coverage summary for the engine core (the session/checkpoint/recovery
# refactor's home) plus its wire, transport and simnet substrate — with
# a hard minimum-coverage gate on the packages the scenario matrix
# protects (runs in CI's cover job).
cover:
	$(GO) test -coverprofile=cover.out ./internal/core/ ./internal/wire/ ./internal/transport/ ./internal/simnet/ ./internal/wal/ ./internal/serve/ ./internal/paramserver/ | tee cover-packages.txt
	@if grep -q '^FAIL' cover-packages.txt; then \
		echo "cover: test failures (tee hides the pipeline status; see above)"; exit 1; \
	fi
	@$(GO) tool cover -func=cover.out | grep -E '^total|session.go|checkpoint.go|recovery.go|simnet.go|wal.go|replication.go|infer.go' | tail -24
	@echo "full per-function report: $(GO) tool cover -func=cover.out"
	@set -e; for spec in \
		"medsplit/internal/core:$(COVER_MIN_core)" \
		"medsplit/internal/transport:$(COVER_MIN_transport)" \
		"medsplit/internal/simnet:$(COVER_MIN_simnet)" \
		"medsplit/internal/wal:$(COVER_MIN_wal)" \
		"medsplit/internal/serve:$(COVER_MIN_serve)" \
		"medsplit/internal/paramserver:$(COVER_MIN_paramserver)"; do \
		pkg=$${spec%%:*}; min=$${spec##*:}; \
		pct=$$(awk -v pkg="$$pkg" '$$1 == "ok" && $$2 == pkg { for (i = 3; i <= NF; i++) if ($$i == "coverage:") { sub(/%$$/, "", $$(i+1)); print $$(i+1) } }' cover-packages.txt); \
		if [ -z "$$pct" ]; then echo "cover gate: no coverage reported for $$pkg"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" -v m="$$min" 'BEGIN { print (p >= m) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then \
			echo "cover gate: $$pkg at $$pct% is below the $$min% floor"; exit 1; \
		fi; \
		echo "cover gate: $$pkg $$pct% >= $$min%"; \
	done
	@rm -f cover-packages.txt

# Known-vulnerability scan (runs in CI's lint job; needs network to
# install the scanner the first time).
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

# The CI gate, job for job: lint, build+test, the benchmark module's
# vet+test, race, the purego and arm64 kernel-dispatch legs, bench smoke
# plus the allocation-regression compare, fuzz smoke. govulncheck is
# CI-only (network).
ci: fmt-check test bench-check race purego-test cross-arm64 bench-smoke bench-compare fuzz-smoke

# Human-readable benchmark sweep of the tensor engine, codecs and
# training path.
bench:
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -run NONE ./internal/tensor/ ./internal/nn/ ./internal/compress/ .

# One-iteration benchmark pass piped through cmd/benchjson, which fails
# on malformed output — the cheap guard that keeps BENCH_*.json
# regenerable. -benchmem is load-bearing: it puts allocs/op on every
# line, so the JSON trajectory tracks the wire path's allocation wins.
bench-smoke:
	$(GO) test -bench 'BenchmarkMatMul|BenchmarkSplitRound|BenchmarkCodec|BenchmarkSimnetRound|BenchmarkServeInfer|BenchmarkConsistencyModes' -benchmem -benchtime 1x -run NONE ./internal/tensor/ ./internal/compress/ ./internal/serve/ . \
		| $(GO) run ./cmd/benchjson > /dev/null
	@echo bench-smoke ok

# Allocation-regression gate: rerun the baseline benchmarks and compare
# allocs/op against the committed BENCH_*.json via `benchjson -compare`.
# ns/op is skipped — shared-runner clocks are too noisy to gate on; time
# is gated when bench-save-* regenerates a baseline on pinned hardware.
# GOMAXPROCS=1 matches the environment the committed baselines record,
# and the multi-iteration benchtime amortizes one-time pool warm-up
# allocations that would otherwise inflate allocs/op vs the baselines.
bench-compare:
	GOMAXPROCS=1 $(GO) test -bench 'BenchmarkMatMul|BenchmarkMatMulTA|BenchmarkMatMulTB|BenchmarkIm2Col$$|BenchmarkConvForward|BenchmarkSplitRound|BenchmarkKernel|BenchmarkDenseBackwardInputLayer|BenchmarkInputLayerUpdate|BenchmarkClipGrads|BenchmarkSGDStep|BenchmarkReLU|BenchmarkMaxPool2D|BenchmarkConvTrainStep' -benchmem -benchtime 10x -run NONE \
		./internal/tensor/ ./internal/tensor/kernels/ ./internal/nn/ . | $(GO) run ./cmd/benchjson -compare BENCH_tensor.json -skip-ns
	GOMAXPROCS=1 $(GO) test -bench 'BenchmarkCodec|BenchmarkSplitRound' -benchmem -benchtime 10x -run NONE \
		./internal/compress/ . | $(GO) run ./cmd/benchjson -compare BENCH_wire.json -skip-ns
	GOMAXPROCS=1 $(GO) test -bench 'BenchmarkSimnetRound' -benchmem -benchtime 3x -run NONE . \
		| $(GO) run ./cmd/benchjson -compare BENCH_simnet.json -skip-ns
	GOMAXPROCS=1 $(GO) test -bench 'BenchmarkWALAppend|BenchmarkReplicatedRound' -benchmem -benchtime 3x -run NONE \
		./internal/wal/ . | $(GO) run ./cmd/benchjson -compare BENCH_wal.json -skip-ns
	{ GOMAXPROCS=1 $(GO) test -bench 'BenchmarkServeInfer' -benchmem -benchtime 200x -run NONE ./internal/serve/; \
	  GOMAXPROCS=1 $(GO) test -bench 'BenchmarkServeLoadPrecision' -benchmem -benchtime 1x -run NONE .; } \
		| $(GO) run ./cmd/benchjson -compare BENCH_serve.json -skip-ns
	GOMAXPROCS=1 $(GO) test -bench 'BenchmarkConsistencyModes' -benchmem -benchtime 2x -run NONE . \
		| $(GO) run ./cmd/benchjson -compare BENCH_consistency.json -skip-ns
	@echo bench-compare ok

# The multi-tenant serving load test at issue scale: 100 platforms x 4
# tenants over the simulated geo-WAN, under the race detector, printing
# p50/p99 latency and req/s.
load-test:
	$(GO) test -race -count=1 -v -run 'TestServeLoad100Platforms4Tenants' ./internal/serve/

# The serving-tier chaos matrix under the race detector: drops, delay
# spikes, server stalls and severed connections against 100 platforms x
# 4 tenants, asserting every request either succeeds bit-identically to
# the fault-free run or fails fast with a typed error, with zero
# goroutine leaks (runs in the nightly workflow with log upload).
chaos-test:
	$(GO) test -race -count=1 -v -run 'TestServeChaos' ./internal/serve/

# Refresh the committed tensor/kernel perf baseline. Includes the
# microkernel benchmarks (BenchmarkKernel*), whose dispatch and generic
# sub-benchmarks carry GFLOPS / GB-per-s as custom metrics so the
# committed file records the vectorization speedup on pinned hardware.
# Compare the result against the checked-in BENCH_*.json before
# committing (see README.md, "Performance methodology").
bench-save-tensor:
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -run NONE \
		./internal/tensor/ ./internal/tensor/kernels/ ./internal/nn/ . | $(GO) run ./cmd/benchjson \
		-note 'pre-kernel-layer baseline (PR8): BenchmarkMatMul/blocked/256 7.295 GFLOPS; the kernel layer (PR9) dispatches to AVX2/NEON microkernels, bit-identical to the generic arm by the differential tests in internal/tensor/kernels' \
		-note 'BenchmarkKernel* sub-benchmarks report GFLOPS (GOPS for int8) as a custom metric; the /generic arm is the forced-fallback reference on the same machine' \
		-note 'BenchmarkInputLayerUpdate: /unfused (ZeroGrads, Backward, ClipGrads, SGD.Step: five passes over the 3072x64 matrix) and /fused (nn.BackwardStep: one pass, the gradient untouched) are the before and after of the fused dense update, bit-identical by the nn differential tests' \
		-note 'BenchmarkReLU, BenchmarkMaxPool2D: one train forward+backward at the train_vgg_int8 shapes, and under /eval/ one eval forward at the serving batch (8 rows); both layers run the AVX2 kernels.ReLU/MaxPool2x2 selects, and the scalar loops those replaced took 343/197/92 (ReLU) and 350/163/83 (MaxPool2D) us per train step and 59/28 and 76/44 us per eval forward on the host that recorded these entries' \
		> BENCH_tensor.json
	@echo wrote BENCH_tensor.json

bench-save: bench-save-tensor

# Refresh the wire-path baseline: codec micro-benchmarks plus the
# end-to-end split round, with allocs/op (the headline metric of the
# zero-allocation wire path). The notes pin the pre-redesign allocs/op
# so the committed file carries its own before/after.
bench-save-wire:
	$(GO) test -bench 'BenchmarkCodec|BenchmarkSplitRound' -benchmem -run NONE \
		./internal/compress/ . | $(GO) run ./cmd/benchjson \
		-note 'pre-zero-alloc-wire baseline (PR2): BenchmarkSplitRound allocs/op mlp=4573 mlp/pipelined=5130 vgg-lite=9638 vgg-lite/pipelined=10487' \
		-note 'differential tests: compress kernels bit-for-bit serial vs parallel (raw/f16/int8), top-k tie multiset (internal/compress/kernels_test.go)' \
		> BENCH_wire.json
	@echo wrote BENCH_wire.json

# Refresh the simulated-WAN scale-out baseline: full protocol rounds
# over simnet at 5/25/100 platforms. ns/op tracks the real cost of
# simulating a session; the sim-ms/round metric is the virtual WAN
# round time on the arm's topology.
bench-save-simnet:
	$(GO) test -bench 'BenchmarkSimnetRound' -benchmem -benchtime 3x -run NONE . \
		| $(GO) run ./cmd/benchjson \
		-note '5-platform arm runs the paper 5-hospital topology (geonet.DefaultHospitalTopology); 25/100 use geonet.SyntheticClinics(seed 23)' \
		-note 'sim-ms/round is virtual WAN time per synchronous round measured by the simnet clock; determinism asserted by internal/simnet soak tests' \
		> BENCH_simnet.json
	@echo wrote BENCH_simnet.json

# Refresh the replication-tier baseline: raw WAL append throughput at
# several record sizes and fsync policies, plus full training sessions
# with 0/1/2 warm followers (the end-to-end cost of durability-before-
# ack on the round loop).
bench-save-wal:
	$(GO) test -bench 'BenchmarkWALAppend|BenchmarkReplicatedRound' -benchmem -benchtime 3x -run NONE \
		./internal/wal/ . | $(GO) run ./cmd/benchjson \
		-note 'replicas=0 is the unreplicated baseline (identical config to BenchmarkSplitRound mlp); replicas>0 adds WAL append + follower streams with SyncEvery=1' \
		-note 'failover correctness (bit-identical digests after a mid-round leader kill) is asserted by internal/core and internal/experiment tests, not benchmarked here' \
		-note 'before step records logged the inbound payloads instead of XOR state deltas (followers now re-execute at promotion): BenchmarkReplicatedRound allocs/op replicas=1 2702, replicas=2 3214' \
		> BENCH_wal.json
	@echo wrote BENCH_wal.json

# Refresh the consistency-spectrum baseline: one straggler-loaded
# session per consistency setting over the simulated WAN. allocs/op is the gated
# number; sim-ms/round and accuracy record the frontier shape on pinned
# hardware (the full sweep is experiment.RunConsistencyFrontier, run
# nightly via FRONTIER_SOAK=1).
bench-save-consistency:
	GOMAXPROCS=1 $(GO) test -bench 'BenchmarkConsistencyModes' -benchmem -benchtime 2x -run NONE . \
		| $(GO) run ./cmd/benchjson \
		-note '25 synthetic clinics (seed 23), 10% compute stragglers at 8x the 5ms base, 2ms server compute; sim-ms/round is virtual wall-clock per round' \
		-note 'every arm reports measured virtual elapsed from the simnet clock and is deterministic (the pipelined arm and its analytic estimate were removed with the pipelined mode)' \
		> BENCH_consistency.json
	@echo wrote BENCH_consistency.json

# Refresh the serving-tier baseline: one split-inference round trip
# through the multi-tenant path (front forward, request codec, batcher,
# gated back forward, response codec) at 1 and 4 tenants, at each
# inference precision, plus the 100-platform x 4-tenant load harness at
# f32 and int8 (p50/p99/req-per-s as custom metrics). GOMAXPROCS=1
# keeps the numbers comparable with the other committed baselines.
bench-save-serve:
	{ GOMAXPROCS=1 $(GO) test -bench 'BenchmarkServeInfer' -benchmem -benchtime 2000x -run NONE ./internal/serve/; \
	  GOMAXPROCS=1 $(GO) test -bench 'BenchmarkServeLoadPrecision' -benchmem -benchtime 1x -run NONE .; } \
		| $(GO) run ./cmd/benchjson \
		-note 'per-request path: FlushEvery is floored to 1ns so every request flushes alone; batching gains are covered by the load tests, not this baseline' \
		-note 'tenants=4 vs tenants=1 is the cost of multi-tenant routing + shared compute gate on one process' \
		-note 'frame v6 request header (request id + deadline, 16 bytes) accounts for the bytes/op growth over the v5 baseline; allocs/op stays at 14 on the no-policy hot path' \
		-note 'ServeInferPrecision arms compare TenantConfig.InferPrecision views on one tenant: f32 is the bit-identical default; f16 packs Dense weights to half storage (f32 accumulate); int8 quantizes weights per-tensor symmetric (scale=max|W|/127, i32 accumulate) with dynamic per-batch activation ranges — logit bounds asserted by serve/precision_test.go (5e-2 abs)' \
		-note 'ServeLoadPrecision is the 100-platform x 4-tenant load harness (experiment.RunServeLoad over simnet SyntheticClinics, 2 req/platform) at f32 vs int8; p50-ms/p99-ms/req-per-s are client-observed — at this MLP size the serving path is WAN- and batching-bound, so int8 buys memory footprint, not latency' \
		> BENCH_serve.json
	@echo wrote BENCH_serve.json
