GO ?= go
FUZZTIME ?= 30s

.PHONY: help build test vet race smoke-multicell smoke-parallel smoke-served load-smoke bench-test check sweep bench-smoke city-rss load-fleet soak fuzz-smoke soak-served soak-load

# help lists the public targets. check is the pre-commit gate; soak is the
# nightly chaos run and is deliberately NOT part of check.
help:
	@echo "build           compile everything"
	@echo "test            run the unit suite"
	@echo "vet             go vet, and fail on any file gofmt would change"
	@echo "race            race-detector pass over the concurrent packages"
	@echo "smoke-multicell multi-cell topology smoke under -race"
	@echo "smoke-parallel  epoch-parallel engine smoke under -race: chaos at P=1 vs P=NumCPU"
	@echo "smoke-served    wdcserved conformance under -race: DES model as lock-step oracle"
	@echo "load-smoke      wall-clock load harness smoke under -race: small fleets, all algorithms"
	@echo "bench-test      vet and test the bench/ module, which go build ./... does not compile"
	@echo "check           pre-commit gate: build + vet + race + smoke-multicell + smoke-parallel + smoke-served + load-smoke + bench-test"
	@echo "sweep           regenerate the full evaluation into results/"
	@echo "bench-smoke     run the engine, tracer, uplink and query-plane benchmarks once each"
	@echo "city-rss        100k-client 16-cell city point: peak RSS under 1 GiB, zero stale answers"
	@echo "load-fleet      100- and 1000-client fleets, all algorithms, spawned wdcserved: zero stale answers"
	@echo "fuzz-smoke      native-fuzz pass over every fuzz target (FUZZTIME each, default 30s)"
	@echo "soak            long randomized chaos/fault run under -race (nightly job)"
	@echo "soak-served     nightly served-mode chaos leg: conformance with report loss and query timeouts"
	@echo "soak-load       nightly load leg: larger fleets against a spawned binary, zero stale answers"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also fails when gofmt -l lists a file, so unformatted code cannot land.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# race runs the concurrent packages under the race detector: the sweep
# scheduler (and the core pool it drives), and radio, whose process-wide
# fading-table cache is built from many replications at once.
race:
	$(GO) test -race ./internal/core ./internal/experiment ./internal/radio

# smoke-multicell exercises the sharded multi-cell topology (handoffs, the
# single-cell equivalence goldens, worker-count invariance) under the race
# detector.
smoke-multicell:
	$(GO) test -race -run 'MultiCell|Handoff|SingleCellMatchesLegacy' ./internal/core ./internal/topology

# smoke-parallel exercises the epoch-synchronized parallel engine under the
# race detector: multi-cell chaos runs whose fingerprints must be
# byte-identical at every lane worker count (P=1 through P=NumCPU via
# ParallelWorkers=0), plus pulse accounting and fail-fast cancellation.
smoke-parallel:
	$(GO) test -race -run 'Parallel|CellWorkers' -count=1 ./internal/core ./internal/experiment

# smoke-served runs the served-mode conformance oracle under the race
# detector: a spawned wdcserved binary driven in virtual-time lock-step
# against the DES-style model, asserting byte-identical report streams and
# zero stale answers for all eight algorithms, and for four of them under
# report loss and stalled query frames (the chaos leg); plus the in-process
# graceful-shutdown and wire-framing adversarial tests and the harness's
# spawn handshake tests.
smoke-served:
	$(GO) build -o /tmp/wdcserved ./cmd/wdcserved
	WDCSERVED_BIN=/tmp/wdcserved $(GO) test -race -short -count=1 ./internal/serve/...

# load-smoke runs the wall-clock load harness at test scale under the race
# detector: an in-process wdcserved per algorithm, a small client fleet over
# real UDP and TCP sockets, zero stale answers asserted online, and the
# same-seed determinism contract (two runs, identical action-stream counts).
load-smoke:
	$(GO) test -race -count=1 ./internal/loadgen

# bench-test vets and tests the benchmark (bash bench/run.sh). bench/ is its
# own module, so neither go build ./... nor go test ./... compiles it, yet it
# builds against the served engine's API.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# check is the pre-commit gate.
check: build vet race smoke-multicell smoke-parallel smoke-served load-smoke bench-test

# sweep regenerates the full evaluation into results/ (resumable).
sweep: build
	$(GO) run ./cmd/wdcsweep -exp all -out results -resume

# bench-smoke runs the engine and tracer-overhead benchmarks once each, the
# uplink's light and saturated cases once each, the served query plane once,
# and the obs micro-benchmarks, so they keep compiling and running to
# completion. It compares no timing; bash bench/run.sh is the performance
# measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Engine|TracerOverhead' -benchtime 1x .
	$(GO) test -run '^$$' -bench Uplink -benchtime 1x ./internal/mac
	$(GO) test -run '^$$' -bench QueryPlane -benchtime 1x ./internal/serve
	$(GO) test -run '^$$' -bench . ./internal/obs

# city-rss runs the 100k-client 16-cell city point (seed 7, half the
# population dozing, 2 min horizon) alone in its test binary, so the process's
# peak RSS is that point's: it must stay under 1 GiB with zero stale answers.
city-rss:
	WDC_CITY_PROFILE=1 $(GO) test -run '^TestCityProfilePoint$$' -count=1 -v ./internal/core

# load-fleet sweeps 100- and 1000-client fleets across all eight algorithms
# against a spawned wdcserved binary over real sockets. At 1000 clients the
# fan-out queues shed datagrams, so drop recovery runs; any stale answer
# fails the run.
load-fleet:
	$(GO) build -o /tmp/wdcserved ./cmd/wdcserved
	$(GO) run ./cmd/wdcload -bin /tmp/wdcserved -algos all -fleets 100,1000

# fuzz-smoke runs every fuzz target (the ir and serve wire decoders, and the
# des ladder queue's pop order) for FUZZTIME from its committed seed corpus
# (internal/{ir,serve,des}/testdata/fuzz). FuzzFrameRead also serves each
# input as one connection's stream through the query plane's batch handler on
# a live in-process server. The 30s default gates each
# change in CI; the nightly workflow runs the same list with FUZZTIME=10m.
fuzz-smoke:
	$(GO) test -run '^FuzzUnmarshal$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/ir
	$(GO) test -run '^FuzzReportDecode$$' -fuzz '^FuzzReportDecode$$' -fuzztime $(FUZZTIME) ./internal/ir
	$(GO) test -run '^FuzzFrameRead$$' -fuzz '^FuzzFrameRead$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^FuzzDecodeDatagram$$' -fuzz '^FuzzDecodeDatagram$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^FuzzLadderPopOrder$$' -fuzz '^FuzzLadderPopOrder$$' -fuzztime $(FUZZTIME) ./internal/des

# soak is the nightly chaos harness: many randomized fault schedules (outages,
# report loss, disconnections with every recovery policy) across all eight
# algorithms under the race detector, asserting zero stale reads, no stuck
# clients and a drained event queue. SOAK=<n> scales the seed count (default
# 3x the PR-gating run). Expect tens of minutes; not part of `make check`.
soak:
	SOAK=$${SOAK:-3} $(GO) test -race -run 'Chaos|HandoffDisconnect' -timeout 45m -count=1 -v ./internal/core

# soak-served is the nightly served-mode chaos leg: the full-length (not
# -short) conformance oracle against a spawned wdcserved binary over real
# sockets, including the chaos schedule — lost and truncated broadcast
# datagrams, stalled query frames cut by the server's IO deadline and retried
# with bounded backoff — still asserting byte-identical streams and zero
# stale answers. Not part of `make check`.
soak-served:
	$(GO) build -o /tmp/wdcserved ./cmd/wdcserved
	WDCSERVED_BIN=/tmp/wdcserved $(GO) test -race -run 'Conformance' -timeout 20m -count=1 -v ./internal/serve/conformance

# soak-load is the nightly load leg: load-fleet at larger fleets (1000 and
# 2000 clients, all eight algorithms, a longer step schedule) against a
# spawned wdcserved binary; any stale answer fails. Race coverage of the
# fleet machinery lives in load-smoke. Not part of `make check`.
soak-load:
	$(GO) build -o /tmp/wdcserved ./cmd/wdcserved
	$(GO) run ./cmd/wdcload -bin /tmp/wdcserved -algos all -fleets 1000,2000 -steps 40
