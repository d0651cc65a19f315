# OIPA build / test / benchmark entry points.

GO ?= go

.PHONY: build test race short vet bench-harness-smoke bench-pairs

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

# The benchmark at smoke length: benchmark/ builds oipa-serve from the
# tree, drives 5 s of a workload over loopback, and its oracle recomputes
# sampled answers in-process through the unpruned explicit layout
# constructor. Fails unless each run's last line reports every checked
# answer exact and no request failed. cold_prepare covers layouts,
# sampling and the index, but its solves certify at the root;
# warm_solve_bab (steep model, 40 expanded nodes) is the one that checks
# a real search — bounds under partial plans — against the oracle.
bench-harness-smoke:
	bash benchmark/run.sh --workload cold_prepare --seed 1 --seconds 5 --trace 0 | tail -n 1 | jq -e '.correct == true and .failed == 0'
	bash benchmark/run.sh --workload warm_solve_bab --seed 1 --seconds 5 --trace 0 | tail -n 1 | jq -e '.correct == true and .failed == 0'

# Alternating parent/change pairs of one workload (one 20 s run per seed
# per side), printed as BENCH.md rows and a q1 / median / q3 table:
#   make bench-pairs PARENT=<rev> WORKLOAD=warm_solve_bab SEEDS="1 2 3 4"
RUN_SECONDS ?= 20
bench-pairs:
	bash scripts/bench-pairs.sh "$(PARENT)" "$(WORKLOAD)" "$(SEEDS)" $(RUN_SECONDS)
