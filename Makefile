# Verification entry points. `make verify` is the tier-1 gate: build, unit
# tests, and the full race-detector sweep (the staged pipeline engine and
# the gate's overlapping Decide/Feedback are concurrent code; -race is not
# optional for them).

GO ?= go

.PHONY: build test race verify verify-quick vet fuzz bench chaos soak alloc-smoke corpus replay scale cluster failover benchdiff perfbench loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -short skips the minutes-long experiment smoke harness (already covered
# unraced by `make test`) while keeping every concurrency test in the sweep;
# the race detector is ~10x, so the full harness would blow the go test
# timeout on small hosts.
race:
	$(GO) test -race -short -timeout 20m ./...

# go vet always; staticcheck rides along when it is on PATH (the container
# image does not bake it in, so its absence is not an error).
vet:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Non-test Go lines per package (the line-count record CHANGES.md keeps).
loc:
	@$(GO) list -f '{{.Dir}}{{range .GoFiles}} {{.}}{{end}}' ./... | while read dir files; do \
		n=0; if [ -n "$$files" ]; then n=$$(cd "$$dir" && cat $$files | wc -l); fi; \
		rel=$${dir#$(CURDIR)}; rel=$${rel#/}; printf '%6d %s\n' "$$n" "$${rel:-.}"; \
	done

# Cheap allocation regression gates for the gating hot loop: a steady-state
# Decide+Feedback round and the batched compiled forward must stay at ~zero
# allocs/op (testing.AllocsPerRun, no benchmark run needed).
alloc-smoke:
	$(GO) test ./internal/core -run 'TestDecideRoundAllocCeiling|TestIncrementalDecideAllocCeiling' -count 1
	$(GO) test ./internal/predictor -run 'TestPredictIntoZeroAlloc|TestWindowZeroAlloc' -count 1
	$(GO) test ./internal/nn -run TestCompiledForwardZeroAlloc -count 1

verify: build vet test perfbench race alloc-smoke replay soak scale cluster failover benchdiff

# The benchmark module: perfbench/ is a separate Go module (it pulls this
# one in through a replace directive), so `go test ./...` at the root never
# compiles it, and a gate API change that breaks it would pass unnoticed.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Headline-regression gate: after `make scale`/`make cluster` rewrite the
# BENCH files, compare their headline speedups against the copies committed
# at HEAD and fail if any fell below 85% of its baseline. Skips (with a
# note) when a baseline is missing or the bench schema version changed.
benchdiff:
	$(GO) run ./cmd/benchdiff

# The inner-loop gate: build, vet, and unraced unit tests (root module and
# the perfbench module) only — no race sweep, soak, or paper-scale
# experiment runs.
verify-quick: build vet test perfbench

# The distributed gating cluster gate: the full-size oracle-equality and
# chaos harness under the race detector (10k streams x 8 workers), then the
# chaos benchmark — two worker kills, one rejoin — which self-asserts
# recall within 2% of the stable cluster, the p99 SLO, and same-seed
# determinism. CLUSTERSCALE=1 rewrites BENCH_cluster.json.
CLUSTERSCALE ?= 1
cluster:
	$(GO) test ./internal/cluster -race -count 1 -timeout 10m
	$(GO) run ./cmd/pgbench -exp cluster -scale $(CLUSTERSCALE)

# The coordinator fail-over gate: primary kill, standby election, orphan
# mode, and crash-proof accounting. The benchmark self-asserts same-seed
# takeover determinism, chaos recall within 2% of the stable cluster, the
# p99 SLO through the takeover storm, and exact oracle re-convergence
# (zero divergent rounds, decision hash unbroken) after a boundary crash.
# FAILOVERSCALE=1 rewrites BENCH_failover.json.
FAILOVERSCALE ?= 1
failover:
	$(GO) run ./cmd/pgbench -exp failover -scale $(FAILOVERSCALE)

# The churn-scaled Decide sweep: m up to 100k, all streams active, with 1%,
# 10%, and 100% of the fleet varying its packet metadata per round. The
# experiment self-asserts the per-round allocation ceiling in every cell
# and, at full scale, the m=100k acceptance floor (a 1%-churn round ≥50x
# faster than a 100%-churn round). SCALESCALE=1 rewrites BENCH_scale.json.
SCALESCALE ?= 1
scale:
	$(GO) run ./cmd/pgbench -exp scale -scale $(SCALESCALE)

# Regenerate the committed deterministic capture corpus under
# testdata/captures/. The output is byte-reproducible; the golden tests fail
# if the committed files drift from what this target writes, so format or
# gate changes must re-run it and commit the refreshed corpus.
corpus:
	$(GO) run ./cmd/pgcap corpus

# The capture/replay regression gate: the golden decision-trace audits
# (committed corpus replayed bit-identically through today's gate), the
# capture-container fuzz seeds as plain tests, and the pgbench replay
# experiment — determinism audits, speedup-1 recorded-timing fidelity
# (±5%), and the flat-rate control that flattens recorded bursts.
# REPLAYSCALE=1 also rewrites BENCH_replay.json.
REPLAYSCALE ?= 1
replay:
	$(GO) test ./internal/capture -run 'TestGoldenCorpus|TestFuzzSeedsNonFuzzing' -count 1
	$(GO) run ./cmd/pgbench -exp replay -scale $(REPLAYSCALE)

# The overload soak under the race detector: the compressed diurnal campus
# day with chaos faults and a capacity-collapse incident, replayed with and
# without the budget governor. The experiment self-asserts the SLO, the
# peak-miss gap, FD recall, and bit-identical determinism; scale 0.25 keeps
# the raced run under ~2 minutes. SOAKSCALE=1 reproduces the full m=256
# soak and rewrites BENCH_overload.json.
SOAKSCALE ?= 0.25
soak:
	$(GO) run -race ./cmd/pgbench -exp overload -scale $(SOAKSCALE)

# Short fuzzing sessions for the bitstream parser and the PGV demuxer.
# Seed corpora always run as part of `make test`; this digs deeper.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/parser -fuzz FuzzParser -fuzztime $(FUZZTIME)
	$(GO) test ./internal/parser -fuzz FuzzEmulationRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/container -fuzz FuzzReader -fuzztime $(FUZZTIME)
	$(GO) test ./internal/container -fuzz FuzzUnmarshalPacket -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream -fuzz FuzzPGSPFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/capture -fuzz FuzzCaptureContainer -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -fuzz FuzzPGCPRoundFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -fuzz FuzzFailoverRecords -fuzztime $(FUZZTIME) -fuzzminimizetime 5s

# The chaos experiment under the race detector: deterministic fault
# injection, circuit-breaker quarantine, and the self-healing PGSP ingest,
# all exercised concurrently through the pipelined engine.
chaos:
	$(GO) run -race ./cmd/pgbench -exp chaos

# Hot-loop microbenches (with allocation counts), then the hotpath sweep,
# which rewrites BENCH_hotpath.json with this host's Decide-round
# throughput at m = 64/256/1024 and the compiled-vs-reference forward
# speedup.
bench:
	$(GO) test ./internal/nn -run NONE -bench 'Forward' -benchtime 2s -benchmem
	$(GO) test ./internal/core -run NONE -bench 'DecideRound' -benchtime 2s -benchmem
	$(GO) test ./internal/pipeline -run NONE -bench BenchmarkEngineRounds -benchtime 2s
	$(GO) test . -run NONE -bench . -benchtime 1s
	$(GO) run ./cmd/pgbench -exp hotpath
