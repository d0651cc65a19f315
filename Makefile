# OIPA build / test / benchmark entry points.

GO ?= go

.PHONY: build test race race-short short vet fmt lines test-lines ci fuzz-smoke bench-harness-smoke bench-pairs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race -timeout 30m ./...

vet:
	$(GO) vet ./...

# Fails when gofmt would rewrite a tracked Go file.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); if [ -n "$$out" ]; then echo "gofmt -l lists:" >&2; echo "$$out" >&2; exit 1; fi

# The race detector over the packages that run concurrent solves, in
# short mode; three runs of serve, whose registry builds and request
# paths interleave differently from run to run, and whose lifecycle
# conformance model reads published snapshots while entries grow.
race-short:
	$(GO) test -race -short ./internal/core ./internal/logistic
	$(GO) test -race -short -count=3 ./internal/serve

# Non-test Go lines outside benchmark/ (ROADMAP aim 2: the count goes
# down). The CI job summary prints this target's output.
lines:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^benchmark/' | xargs cat | wc -l

# Test Go lines outside benchmark/ (ROADMAP item 15: at most 0.75× the
# lines target). The CI job summary prints it beside lines.
test-lines:
	@git ls-files '*_test.go' | grep -v '^benchmark/' | xargs cat | wc -l

# The checks that need no network and no second machine, in CI order.
# bench-harness-smoke is the one that recomputes sampled 40-node searches
# against a fresh in-process preparation; it needs jq and takes ~40 s of
# wall time on 2 vCPU once its build cache is warm.
ci: build vet fmt test race-short fuzz-smoke bench-harness-smoke

# Ten seconds each of native fuzzing over the two untrusted inputs:
# campaign JSON, the request bytes every solve and estimate decodes, and
# the graph file every boot reads (go test alone runs the seed corpora).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzCampaignJSON -fuzztime 10s ./internal/topic
	$(GO) test -run '^$$' -fuzz FuzzRead -fuzztime 10s ./internal/graph

# The benchmark at smoke length: benchmark/ builds oipa-serve from the
# tree, drives 5 s of a workload over loopback, and its oracle recomputes
# sampled answers in-process through the unpruned explicit layout
# constructor. Fails unless each run's last line reports every checked
# answer exact and no request failed. cold_prepare covers layouts,
# sampling and the index, but its solves certify at the root;
# warm_solve_bab (steep model, 40 expanded nodes) is the one that checks
# a real search — bounds under partial plans — against the oracle;
# warm_query_mix is the one whose oracle compares served estimates, which
# the server reads off the inverted index, with the θ-scan; theta_ladder
# is the one that grows entries in place and solves θ-prefixes of them,
# through the solver scratch each instance lineage owns.
bench-harness-smoke:
	bash benchmark/run.sh --workload cold_prepare --seed 1 --seconds 5 --trace 0 | tail -n 1 | jq -e '.correct == true and .failed == 0'
	bash benchmark/run.sh --workload warm_solve_bab --seed 1 --seconds 5 --trace 0 | tail -n 1 | jq -e '.correct == true and .failed == 0'
	bash benchmark/run.sh --workload warm_query_mix --seed 1 --seconds 5 --trace 0 | tail -n 1 | jq -e '.correct == true and .failed == 0'
	bash benchmark/run.sh --workload theta_ladder --seed 1 --seconds 5 --trace 0 | tail -n 1 | jq -e '.correct == true and .failed == 0'

# Alternating parent/change pairs of one workload (one 20 s run per seed
# per side), printed as BENCH.md rows and a q1 / median / q3 table:
#   make bench-pairs PARENT=<rev> WORKLOAD=warm_solve_bab SEEDS="1 2 3 4"
RUN_SECONDS ?= 20
bench-pairs:
	bash scripts/bench-pairs.sh "$(PARENT)" "$(WORKLOAD)" "$(SEEDS)" $(RUN_SECONDS)
