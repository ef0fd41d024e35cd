# FIRST reproduction — build/verify targets.

GO ?= go
# FUZZTIME is the fuzzing budget: 3s in the per-PR gate, 60s nightly
# (make fuzz FUZZTIME=60s).
FUZZTIME ?= 3s

.PHONY: all check fmt vet build test fuzz lint race chaos calibrate benchmark-smoke pairs loc federate-night autoscale-night livefed-night

all: check

# check is the tier-1 gate every PR must keep green; the brief fuzz pass
# keeps malformed request bodies from ever panicking a handler; lint runs
# the repo's own firstlint analyzers (det, clockonly, seedflow, hotpath).
check: fmt vet build test fuzz lint

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

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
# frames), the gateway config file, the chaosnet.Schedule JSON, and the
# fabric's task/result payloads (FuzzUnmarshalPayload: no panic, and what
# decodes survives a re-marshal) — and one state machine: FuzzEngineOffer
# decodes bytes into a submit/abort/wait schedule and checks serving.Engine's
# offer/settle path against the per-iteration reference engine.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime $(FUZZTIME) ./internal/openaiapi
	$(GO) test -run '^$$' -fuzz '^FuzzReadSSE$$' -fuzztime $(FUZZTIME) ./internal/openaiapi
	$(GO) test -run '^$$' -fuzz '^FuzzLoadConfig$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSchedule$$' -fuzztime $(FUZZTIME) ./internal/chaosnet
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalPayload$$' -fuzztime $(FUZZTIME) ./internal/fabric
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOffer$$' -fuzztime $(FUZZTIME) ./internal/serving

# race runs the tier-1 suite under the race detector — the gate for the
# sharded gateway front-end's parallel stress tests.
race:
	$(GO) test -race ./...

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
# in a checkout of the parent commit and in this tree, one pair per seed. It
# prints every run (req_per_s, lat_p50_ms, allocs_per_req, setup_s, correct,
# modelled-row digest), each side's median and quartiles and the win count,
# and fails if a run fails or a pair's digests differ. SEEDS has no default:
# pick ones CHANGES.md does not list as spent, and list them there after.
#   make pairs PARENT=/root/scratch/parent WORKLOAD=des-autoscale SEEDS="401 402 ..."
pairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" -a -n "$(SEEDS)" || { \
		echo 'usage: make pairs PARENT=<checkout> WORKLOAD=<name> SEEDS="<n> <n> ..."'; exit 2; }
	bash scripts/pairs.sh "$(PARENT)" "$(WORKLOAD)" $(SEEDS)

# loc prints the line count every size bound in ROADMAP.md quotes: non-test
# and test Go lines per internal/* package (scripts/loc.sh). The check CI job
# prints it beside the tests; nothing gates on it.
loc:
	@bash scripts/loc.sh

# federate-night runs the full-scale federation determinism suite — 10⁶
# open-loop requests + 10⁴ WebUI sessions, byte-identical across worker
# counts and queue kinds. Too slow for per-PR CI; the nightly job runs it.
federate-night:
	FIRST_FEDERATE_FULL=1 $(GO) test -run '^TestFederateFullScale' -v -timeout 30m ./internal/experiments

# autoscale-night runs the full-scale auto-scaling determinism suite — the
# complete diurnal/bursty family (reactive cells plus their predictive
# twins) with every elasticity assertion and the predictive-vs-reactive
# sweep (same-trace p99/refused comparison), byte-identical across worker
# counts and queue kinds. Per-PR CI keeps the scaled-down family as the
# fast guard; the nightly job runs this one.
autoscale-night:
	FIRST_AUTOSCALE_FULL=1 $(GO) test -run '^TestAutoScaleFullScale' -v -timeout 30m ./internal/experiments

# calibrate runs the per-PR calibration gate: the short livefed cell live,
# its executed schedule replayed into the DES twin, rung shares within
# ±5 pts and the failover-vs-migration ratio within 2× — or the target fails.
calibrate:
	$(GO) test -short -run '^TestLiveFedCalibrationGate$$' -v ./internal/experiments

# livefed-night regenerates the full live-chaos family (the nightly cells:
# 2000- and 3000-request storms with their DES calibration twins), prints
# the outcome census + calibration tables the nightly CI job archives, and
# FAILS if any cell trips the tolerance gate — preserving the divergent
# schedule under calib-artifacts/ for offline replay.
livefed-night:
	$(GO) run ./cmd/first-bench -exp livefed -calib-out calib-artifacts
