#!/bin/sh
# ci.sh — the repository's full verification gate.
#
#   ./ci.sh          # gofmt + vet + build + race-enabled tests (includes the
#                    # worker-count determinism regression)
#   ./ci.sh -full    # additionally run the full-size Fig3a determinism
#                    # check (minutes of branch-and-bound)
#
# The -race run covers every package, so the parallel experiment harness
# and the per-zone solvers are exercised under the race detector on every
# gate, including cmd/sagserved's kill -9 drill
# (TestKill9MidSolveReplaysJournal): a journaled child server is killed
# mid-solve and the journal must replay the job to a byte-identical result.
# Tests are written to pass with -short except the full-size determinism
# check, which -full enables by dropping -short.
set -eu

cd "$(dirname "$0")"

MODE=short
if [ "${1:-}" = "-full" ]; then
	MODE=full
fi

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "ci.sh: gofmt -l lists unformatted files:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./... ($MODE)"
if [ "$MODE" = full ]; then
	go test -race -timeout 60m ./...
else
	go test -race -short -timeout 30m ./...
fi

# The benchmark is a module of its own, so the root ./... never compiles
# it, yet it drives core, lower, incr, milp, lp and serve through their
# public APIs. Vet it and run its smoke test (every workload at a tiny size,
# answers checked) so an API change cannot silently break it.
echo "== (cd bench && go vet ./... && go test -race ./...)"
(cd bench && go vet ./... && go test -race -count=1 ./...)

# The solve service gets an extra race-enabled pass without -short. Its
# end-to-end gates are ordinary tests: a byte-identical cache hit with the
# trace and Prometheus grammar checks (TestCacheHitIsByteIdenticalAndFree,
# TestResultDocCarriesTrace, TestMetricsPrometheusHistograms), the pinned
# sagmetrics/10 key order, a tight-deadline job behind a backlog answered
# degraded and uncached (TestTightDeadlineBehindBacklogAnsweredDegraded),
# queue-full refusals at zero solver cost with accepted answers equal to an
# unloaded server's (TestAnswersUnderStormMatchUnloaded), /healthz under a
# delay storm (TestHealthzLiveUnderDelayStorm), bit-rotted journal
# quarantine (TestJournalCorruptRecordQuarantined), a grid batch stream
# matching individual solves (TestBatchGridStreamMatchesIndividualSolves),
# batch-item cache hits leaving the same flight records and log lines as
# /v1/solve (TestBatchItemCacheHitLeavesSolveRecords), and a live progress
# stream, flight record, dump and JSON log line (TestProgressStreamLiveJob,
# TestFlightRecordAfterJob).
echo "== go test -race ./internal/serve/"
go test -race -count=1 -timeout 10m ./internal/serve/

# The journal's group commit under repetition: -race runs the committer
# tests (fsyncs shared by queued waiters, an fsync error reaching every
# waiter it covered), the fsyncs-per-request pins and the journal and
# recovery tests (parent-format data dirs, evicted twins) 20 times each, so
# a rare interleaving of writers, waiters and the fsync leader gets many
# chances to show.
echo "== go test -race -count=20 -run 'Journal|GroupCommit|Recovery' ./internal/serve/"
go test -race -count=20 -run 'Journal|GroupCommit|Recovery' -timeout 20m ./internal/serve/

# Overload replay, one iteration per phase (~2 min): EXPERIMENTS.md cites
# BenchmarkOverloadReplay, so a panic, a b.Fatal or a job that ends failed
# in it fails the gate instead of rotting until the next measurement.
echo "== go test -run '^\$' -bench OverloadReplay -benchtime 1x ./internal/serve/"
go test -count=1 -run '^$' -bench OverloadReplay -benchtime 1x -timeout 20m ./internal/serve/

# Resilience gate. The chaos suite (build-tagged so it never runs by
# accident) arms every registered fault-injection site with every failure
# kind and asserts jobs stay terminal and the server stays alive.
echo "== go test -race -tags faultinject -run Chaos ./internal/serve/"
go test -race -tags faultinject -run Chaos -count=1 -timeout 20m ./internal/serve/

# Performance gates for the branch-and-bound hot path. The pivot-regression
# gate solves the pinned ILPQC benchmark instance and fails if the total
# simplex pivot count regresses past the recorded budget (half the
# pre-warm-start baseline, so the >= 2x reduction is enforced, not just
# recorded). The -race warm-start pass hammers the per-Solver basis
# buffers from concurrent goroutines to prove warm-start state never leaks
# across solvers, and compares every refactorization of the factor-reuse
# searches and of full-size IAC zones with the reference that eliminates
# every basic column (TestRefactorMatchesReference).
echo "== go test -run TestPivotRegressionGate ./internal/milp/"
go test -count=1 -run TestPivotRegressionGate ./internal/milp/

echo "== go test -race -run 'Warm|Refactor' ./internal/lp/ ./internal/milp/"
go test -race -count=1 -run 'Warm|Refactor' -timeout 10m ./internal/lp/ ./internal/milp/

# Hitting-set equivalence gate: local search must take the same swaps as
# the reference kept in internal/hitting/reference_test.go. The -short race
# pass above cuts the differential streams to a few dozen fields, which miss
# rare states such as a sweep whose 2 -> 1 swap leaves a point no disk needs
# alone; the full streams (~50 s) run here, without -race to keep it short.
echo "== go test -run MatchesReference ./internal/hitting/"
go test -count=1 -run MatchesReference -timeout 10m ./internal/hitting/

# SAG micro-benchmarks, one iteration each: EXPERIMENTS.md cites them, so
# a benchmark that panics or no longer compiles fails the gate instead of
# rotting until the next measurement.
echo "== go test -run '^\$' -bench 'SAMC30|MBMC30|PRO30|ZonePartition|HittingSet' -benchtime 1x ."
go test -count=1 -run '^$' -bench 'SAMC30|MBMC30|PRO30|ZonePartition|HittingSet' -benchtime 1x .

# Incremental-equivalence gate: a mutation storm of every delta kind (add,
# remove, move and traffic-change subscribers; add and remove base stations)
# where each incremental solve through warmed zone-level stores must be
# byte-identical to a cold solve of the same mutated scenario, for both the
# heuristic and exact pipelines — plus the counter proof that a single
# subscriber move re-solves at least one zone and splices at least one, and
# that every zone of the mutated partition is one or the other.
echo "== go test -race -run 'TestIncr' ./internal/incr/"
go test -race -count=1 -run 'TestIncr' -timeout 20m ./internal/incr/

# Observability gate: a traced sagcli solve must emit a span tree covering
# every pipeline stage, with no zero-length span. The default SAMC solve runs
# its zones in order on one worker; the IAC solve of the same scenario fans
# them out, so its zone and B&B spans are opened on pool workers. (The
# Prometheus exposition grammar is gated by TestMetricsPrometheusHistograms
# in the serve pass above.)
echo "== sagcli -trace-out"
TRACEDIR=$(mktemp -d)
trap 'rm -rf "$TRACEDIR"' EXIT
go run ./cmd/sagcli -gen -users 12 -field 400 -bs 2 -save "$TRACEDIR/sc.json" >/dev/null
go run ./cmd/sagcli -scenario "$TRACEDIR/sc.json" -trace-out "$TRACEDIR/samc.json" >/dev/null
go run ./cmd/sagcli -scenario "$TRACEDIR/sc.json" -coverage IAC -trace-out "$TRACEDIR/iac.json" >/dev/null
check_trace() {
	file=$1
	shift
	for stage in "$@"; do
		if ! grep -q "\"name\": \"$stage\"" "$TRACEDIR/$file"; then
			echo "ci.sh: $file lacks a \"$stage\" span" >&2
			exit 1
		fi
	done
	if grep -q '"dur_ns": 0' "$TRACEDIR/$file"; then
		echo "ci.sh: $file contains a zero-duration span" >&2
		exit 1
	fi
}
check_trace samc.json sagcli solve zone_partition zone coverage coverage_power connectivity connectivity_power
check_trace iac.json zone_partition zone bnb

echo "ci.sh: all checks passed"
