GO ?= go

.PHONY: check fmt vet staticcheck build test race bench bench-engine bench-throughput bench-test bench-e2e bench-compare fuzz chaos farm results-check lines

# check is the local gate: formatting, vet, build, the tier-1 tests, the
# race detector and the benchmark module's own tests. CI runs all of these
# and, beyond them, `make bench`, the fuzz, chaos and farm smokes and
# `make results-check`, which check leaves to CI.
check: fmt vet staticcheck build test race bench-test

# fmt fails, listing the files, when gofmt would change any Go file.
fmt:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

# vet also checks the Example* functions beside uqsim.go: an example whose
# name has no matching facade identifier (say ExampleSim_Bogus) fails with
# "refers to unknown field or method".
vet:
	$(GO) vet ./...

# staticcheck runs when installed (CI always installs it); locally:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping" ; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs every experiment benchmark once at reduced scale, then the
# engine microbenchmarks.
bench: bench-engine
	$(GO) test -run xxx -bench . -benchtime 1x .

# bench-engine records the event-engine benchmarks in benchstat format:
# post, post at the current instant (the same-instant lane), cold-path At,
# Arm+Cancel of a caller-owned timer, a self-rescheduling chain, and the
# hold model (pop + post at a standing depth of 64, 4k and 100k). BENCH_engine.json is the committed trajectory
# point; compare a working tree against it with
#   benchstat BENCH_engine.json <(make -s bench-engine)
# -cpu 1 because every committed point was recorded on one processor, so
# the rows keep their names.
bench-engine:
	$(GO) test -run xxx -bench BenchmarkEngine -benchmem -cpu 1 ./internal/des | tee BENCH_engine.json

# bench-throughput tracks the simulator hot path (the "scalable" claim):
# the policy variant must stay within a few percent of the base rate and
# of its allocation count (a timer armed and abandoned allocates nothing);
# what the hedging variant still allocates is the backing array of each
# connection's epoll/socket subqueue, once per connection and queue (2,048
# connections on nine instances).
bench-throughput:
	$(GO) test -run xxx -bench 'BenchmarkSimulatorEventRate' -benchtime 5x -benchmem .

# bench-test vets and tests the repository benchmark itself. bench/ is a
# module of its own, so `go test ./...` (tier-1) does not reach it.
bench-test:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# bench-e2e runs the repository benchmark (BENCHMARK.json): the four
# whole-run workloads, end-to-end metrics per workload, written to
# BENCH_E2E_OUT. Pass BENCH_E2E_FLAGS=-trace for the per-layer run.
BENCH_E2E_SEED ?= 1
BENCH_E2E_OUT ?= bench-e2e.json
bench-e2e:
	bash bench/run.sh -seed $(BENCH_E2E_SEED) $(BENCH_E2E_FLAGS) -out $(BENCH_E2E_OUT)

# bench-compare judges two bench-e2e result files against the bounds in
# BENCHMARK.json:
#   make bench-compare A=parent.json B=change.json
bench-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-compare A=<before.json> B=<after.json>"; exit 2; }
	bash bench/run.sh -compare $(A) $(B)

# fuzz exercises the event-queue script fuzzer (live engine against the
# container/heap reference), the session population controller against
# its per-user reference, and every config-loader fuzz target for
# FUZZTIME each. CI runs this as a short smoke; leave a target running
# longer locally with e.g.
#   make fuzz FUZZTIME=5m
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/des -run xxx -fuzz FuzzEngineScript -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload -run xxx -fuzz FuzzSessionsPopulation -fuzztime $(FUZZTIME)
	$(GO) test ./internal/config -run xxx -fuzz FuzzMachines -fuzztime $(FUZZTIME)
	$(GO) test ./internal/config -run xxx -fuzz FuzzFaults -fuzztime $(FUZZTIME)
	$(GO) test ./internal/config -run xxx -fuzz FuzzControl -fuzztime $(FUZZTIME)
	$(GO) test ./internal/config -run xxx -fuzz FuzzGraph -fuzztime $(FUZZTIME)
	$(GO) test ./internal/config -run xxx -fuzz FuzzClient -fuzztime $(FUZZTIME)
	$(GO) test ./internal/config -run xxx -fuzz FuzzPath -fuzztime $(FUZZTIME)
	$(GO) test ./internal/config -run xxx -fuzz FuzzService -fuzztime $(FUZZTIME)
	$(GO) test ./internal/config -run xxx -fuzz FuzzSessions -fuzztime $(FUZZTIME)
	$(GO) test ./internal/farm -run xxx -fuzz FuzzFarmJournal -fuzztime $(FUZZTIME)

# chaos runs a short seeded fault-schedule search against the metastable
# config as a smoke (CI runs this); findings land in a throwaway corpus so
# the committed one only changes deliberately. Exit 3 (findings exist) is
# expected on this intentionally fragile config. A second short search
# runs in hybrid mode against the robust config, where any finding —
# including a cross-fidelity fingerprint divergence — is a hard failure.
# Longer local hunts:
#   make chaos CHAOS_TRIALS=200 CHAOS_MAX_WALL=10m
CHAOS_TRIALS ?= 3
CHAOS_MAX_WALL ?= 2m
chaos:
	@out=$$(mktemp -d); \
	$(GO) build -o $$out/uqsim ./cmd/uqsim || exit 1; \
	$$out/uqsim chaos -config configs/metastable -trials $(CHAOS_TRIALS) \
		-seed 1 -corpus $$out/corpus -max-wall $(CHAOS_MAX_WALL); rc=$$?; \
	if [ $$rc -ne 0 ] && [ $$rc -ne 3 ]; then rm -rf $$out; exit $$rc; fi; \
	$$out/uqsim chaos -config configs/robust -fidelity hybrid -sample-rate 0.25 \
		-trials $(CHAOS_TRIALS) -seed 1 -corpus $$out/corpus-hybrid \
		-max-wall $(CHAOS_MAX_WALL); rc=$$?; \
	rm -rf $$out; \
	if [ $$rc -ne 0 ]; then echo "hybrid-mode chaos search must stay clean"; exit $$rc; fi

# farm smoke-tests the journaled experiment farm end to end: a small sweep
# campaign is SIGKILLed as soon as its journal holds one result, while
# later jobs are still running, then finished with -resume and audited.
# The merged CSV must be byte-identical to a serial `uqsim sweep` of the
# same grid — the farm's determinism contract.
FARM_FROM ?= 12000
FARM_TO ?= 26000
FARM_STEP ?= 2000
farm:
	@out=$$(mktemp -d); trap 'rm -rf $$out' EXIT; \
	$(GO) build -o $$out/uqsim ./cmd/uqsim || exit 1; \
	grid="-config configs/twotier -from $(FARM_FROM) -to $(FARM_TO) -step $(FARM_STEP)"; \
	$$out/uqsim farm $$grid -q -spool $$out/spool >/dev/null & pid=$$!; \
	until ls $$out/spool/results/*.json >/dev/null 2>&1 || ! kill -0 $$pid 2>/dev/null; do sleep 0.01; done; \
	kill -9 $$pid 2>/dev/null; wait $$pid; \
	echo "farm: killed the campaign with $$(ls $$out/spool/results | wc -l) result(s) journaled; resuming"; \
	$$out/uqsim farm $$grid -resume -q -spool $$out/spool >/dev/null || { echo "farm: -resume failed"; exit 1; }; \
	$$out/uqsim farm -audit -spool $$out/spool >/dev/null || { echo "farm: journal audit failed"; exit 1; }; \
	GOMAXPROCS=1 $$out/uqsim sweep $$grid -csv > $$out/serial.csv || exit 1; \
	cmp -s $$out/spool/merged.csv $$out/serial.csv || { echo "farm: merged CSV diverged from serial sweep"; exit 1; }; \
	echo "farm: merged CSV byte-identical to serial sweep after a kill and -resume"

# results-check regenerates every experiment at scale 1.0 and compares each
# CSV byte for byte with its committed copy in results/ (about 3.5 minutes on
# two cores). Only the wall-clock columns differ from run to run; in a file
# whose header names one of the four fixed in the recipe's `wall` list, those
# columns are dropped by name from both sides before comparing. A CSV missing
# on either side fails.
results-check:
	@out=$$(mktemp -d); trap 'rm -rf $$out' EXIT; \
	wall='wall_ms events_per_wall_s users_per_wall_s speedup_x'; \
	$(GO) build -o $$out/uqsim ./cmd/uqsim || exit 1; \
	$$out/uqsim experiments -scale 1.0 -csv -out $$out/new all >/dev/null || exit 1; \
	nowall() { awk -F, -v cols="$$wall" 'BEGIN { OFS = ","; split(cols, c, " "); for (i in c) wall[c[i]] = 1 } \
		NR == 1 { for (i = 1; i <= NF; i++) if ($$i in wall) drop[i] = 1 } \
		{ line = ""; sep = ""; for (i = 1; i <= NF; i++) if (!(i in drop)) { line = line sep $$i; sep = "," }; print line }' "$$1"; }; \
	rc=0; \
	for f in results/*.csv $$out/new/*.csv; do \
		name=$$(basename $$f); \
		if [ ! -f results/$$name ] || [ ! -f $$out/new/$$name ]; then \
			echo "results-check: $$name is not both committed and regenerated"; rc=1; continue; \
		fi; \
		case $$f in $$out/*) continue;; esac; \
		if head -1 $$f | tr ',' '\n' | grep -qxF -e "$$(echo $$wall | tr ' ' '\n')"; then \
			nowall $$f > $$out/old.csv; nowall $$out/new/$$name > $$out/new.csv; \
			cmp -s $$out/old.csv $$out/new.csv || { echo "results-check: $$name differs (wall-clock columns dropped)"; rc=1; }; \
		else \
			cmp -s $$f $$out/new/$$name || { echo "results-check: $$name differs"; rc=1; }; \
		fi; \
	done; \
	if [ $$rc -eq 0 ]; then echo "results-check: every results/*.csv regenerated byte for byte"; fi; \
	exit $$rc

# lines prints the code lines of each package under internal/ and cmd/,
# then their total: non-test Go files, without blank lines and lines that
# hold only a // comment. It gates nothing; the repository's line bars are
# read from it.
lines:
	@for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs -n1 dirname | sort -u); do \
		awk -v d=$$d '{ sub(/^[ \t]+/, "") } $$0 != "" && $$0 !~ /^\/\// { n++ } END { printf "%6d %s\n", n, d }' \
			$$(ls $$d/*.go | grep -v '_test\.go$$'); \
	done | awk '{ print; total += $$1 } END { printf "%6d total\n", total }'
