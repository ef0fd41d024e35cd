# FIRST reproduction — build/verify targets.

GO ?= go
# FUZZTIME is the fuzzing budget: 3s in the per-PR gate, 60s nightly
# (make fuzz FUZZTIME=60s).
FUZZTIME ?= 3s

.PHONY: all check fmt vet build test fuzz fuzzlist lint race chaos calibrate benchmark-smoke pairs loc livefed-night

all: check

# check is the tier-1 gate every PR must keep green; the brief fuzz pass
# keeps malformed request bodies from ever panicking a handler, and fuzzlist
# keeps that pass complete; lint runs the repo's own firstlint analyzers
# (det, clockonly, seedflow, hotpath).
check: fmt vet build test fuzzlist fuzz lint

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# vet also cross-vets the clock package for two systems the pump makes no
# scheduler call on (yield_other.go), so that file cannot rot unbuilt.
vet:
	$(GO) vet ./...
	GOOS=darwin GOARCH=arm64 $(GO) vet ./internal/clock
	GOOS=windows $(GO) vet ./internal/clock

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the repo-specific static analyzers (see internal/lint and the
# "Static analysis" section of doc.go): det, clockonly, seedflow, and the
# hotpath escape-analysis cross-check for //first:hotpath bodies.
lint:
	$(GO) run ./cmd/firstlint ./...

# fuzz runs every decoder of external bytes for FUZZTIME each (3s in `make
# check`; the nightly CI job runs 60s): the openaiapi request parser and SSE
# stream reader (seed corpora under testdata/fuzz; truncation / malformed
# frames), openaiapi.Unmarshal against json.Unmarshal
# (FuzzUnmarshalMatchesStdlib: same value and error text, three calls in a
# row, each into a zero value), openaiapi.AppendJSON against json.Marshal
# (FuzzAppendJSONMatchesStdlib: the chat bodies built from fuzz bytes, same
# bytes or error text, the caller's prefix untouched), the gateway config file, the chaosnet.Schedule JSON, the store's
# four JSONL journals (FuzzStoreLoad: no panic, and a store Load accepts
# survives Save → Load),
# the gateway's batch-create body (FuzzDecodeCreateBatch: no panic, a
# decoded body re-encodes stably) — and
# one state machine: FuzzEngineOffer decodes bytes into a
# submit/abort/wait schedule and checks serving.Engine's offer/settle path
# against the per-iteration reference engine — and one rewrite against the
# body it replaced: FuzzSynthesizeText holds the fabric's response text to
# the strings.Fields version, FuzzStreamChatPieces the gateway's stream
# pieces to the strings.Fields/strings.Join split, byte for byte, and
# FuzzEstimateTokens and FuzzNextField the workload's ASCII fast paths to
# the rune loops they replaced. Every func Fuzz… under
# internal/ is listed here; `make fuzzlist` fails otherwise.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime $(FUZZTIME) ./internal/openaiapi
	$(GO) test -run '^$$' -fuzz '^FuzzReadSSE$$' -fuzztime $(FUZZTIME) ./internal/openaiapi
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalMatchesStdlib$$' -fuzztime $(FUZZTIME) ./internal/openaiapi
	$(GO) test -run '^$$' -fuzz '^FuzzAppendJSONMatchesStdlib$$' -fuzztime $(FUZZTIME) ./internal/openaiapi
	$(GO) test -run '^$$' -fuzz '^FuzzLoadConfig$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSchedule$$' -fuzztime $(FUZZTIME) ./internal/chaosnet
	$(GO) test -run '^$$' -fuzz '^FuzzStoreLoad$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCreateBatch$$' -fuzztime $(FUZZTIME) ./internal/gateway
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOffer$$' -fuzztime $(FUZZTIME) ./internal/serving
	$(GO) test -run '^$$' -fuzz '^FuzzSynthesizeText$$' -fuzztime $(FUZZTIME) ./internal/fabric
	$(GO) test -run '^$$' -fuzz '^FuzzStreamChatPieces$$' -fuzztime $(FUZZTIME) ./internal/gateway
	$(GO) test -run '^$$' -fuzz '^FuzzEstimateTokens$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzNextField$$' -fuzztime $(FUZZTIME) ./internal/workload

# fuzzlist fails when a fuzz target under internal/ is missing from the fuzz
# target above, or when that target names a function that does not exist
# (scripts/fuzzlist.sh): an unlisted fuzz target is silently never run.
fuzzlist:
	@bash scripts/fuzzlist.sh

# race runs the tier-1 suite under the race detector — the gate for the
# sharded gateway front-end's parallel stress tests — then the record
# recycling tests twenty times over: the SDK's in-process call records and
# the fabric's task records, each handed between goroutines and reused, and
# beside them the fabric's multi-Wait test, whose Waits on one future order
# their reads of its outcome by the wake token alone; then
# the scaled clock's precision contract and the hub's pickup test twenty
# times over, which run on the host's timing and flake where a bound or a
# row is wrong; then the serving engine's LiveEngine tests twenty times,
# where a caller and the loop hand the engine between them.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'Recycles|MultiWait' ./internal/client ./internal/fabric
	$(GO) test -race -count=20 -run 'Scaled|HubSleepsOnlyToPickupAhead' ./internal/clock ./internal/fabric
	$(GO) test -race -count=20 -run LiveEngine ./internal/serving

# chaos drives the short livefed storm — chaosnet fault transport, endpoint
# fault bursts, a kill + cold restart mid-run — through the live stack under
# the race detector, checking the zero-lost invariant and the deterministic
# outcome schedule.
chaos:
	$(GO) test -race -short -run '^TestLiveFed' -v ./internal/experiments

# benchmark-smoke covers the benchmark/ module, which is a module of its own
# that imports internal/ and which `./...` at the root therefore neither
# builds nor tests: vet, its tests (including the full-size cross-check of
# the model numbers committed in benchmark/des.go), and firstlint, so that a
# signature change under internal/ cannot break BENCHMARK.json's command
# unnoticed.
benchmark-smoke:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	$(GO) run ./cmd/firstlint -C benchmark ./...

# pairs is the protocol a performance claim is judged by (choosing-metrics
# §8): alternating runs of BENCHMARK.json's command, at its own run_seconds,
# in a checkout of BASE (a temporary git worktree under .bench_build/,
# removed when the script exits) and in this tree, one pair per seed. It
# prints every run (req_per_s, lat_p50_ms, allocs_per_req, setup_s, correct,
# modelled-row digest), then each side's median and quartiles of all four
# end-to-end metrics, each with the change's win count and claim verdict in
# the direction BENCHMARK.json's `better` gives it, and fails if a run
# fails, a pair's digests differ, or the change's median of any of the four
# is worse than the parent's by more than its bound in BENCHMARK.json.
# SEEDS has no default: pick ones CHANGES.md does not list as spent, and list
# them there after.
#   make pairs BASE=HEAD~1 WORKLOAD=des-autoscale SEEDS="401 402 ..."
pairs:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" -a -n "$(SEEDS)" || { \
		echo 'usage: make pairs BASE=<rev> WORKLOAD=<name> SEEDS="<n> <n> ..."'; exit 2; }
	bash scripts/pairs.sh "$(BASE)" "$(WORKLOAD)" $(SEEDS)

# loc prints the line count every size bound in ROADMAP.md quotes: non-test
# and test Go lines per internal/* package (scripts/loc.sh). BASE=<rev> adds
# that revision's counts and the change beside each. The check CI job prints
# it against the PR's base; nothing gates on it.
#   make loc BASE=origin/main
loc:
	@bash scripts/loc.sh $(BASE)

# calibrate runs the per-PR calibration gate: the short livefed cell live
# and its DES twin (the same closed-loop traffic and churn schedule), rung
# shares within ±5 pts and the failover-vs-migration ratio within 2× — or
# the target fails. Beside it, the twin must be a function of the cell and
# the seed alone: two runs, and the run beside the live cell, byte-identical.
calibrate:
	$(GO) test -short -run '^(TestLiveFedCalibrationGate|TestLiveFedTwinByteIdentity)$$' -v ./internal/experiments

# livefed-night regenerates the full live-chaos family (the nightly cells:
# 2000- and 3000-request storms with their DES calibration twins), prints
# the outcome census + calibration tables the nightly CI job archives, and
# FAILS if any cell trips the tolerance gate — preserving the divergent
# schedule under calib-artifacts/ for offline replay.
livefed-night:
	$(GO) run ./cmd/first-bench -exp livefed -calib-out calib-artifacts
