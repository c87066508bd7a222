#!/usr/bin/env sh
# Multi-seed chaos smoke sweep: run the TeraSort binary under each fault
# preset with several seeds, all with the race detector enabled, and fail
# on any incorrect or aborted run. This is the long-form confidence check
# behind `CHAOS=1 scripts/verify.sh`; run directly for a quick sweep:
#
#   scripts/chaos.sh               # default presets x seeds
#   SEEDS="1 2 3 4" scripts/chaos.sh
#   PRESETS="mixed" scripts/chaos.sh
set -eu

cd "$(dirname "$0")/.."

SEEDS=${SEEDS:-"1 7 42"}
PRESETS=${PRESETS:-"crash partition straggler flaky mixed"}
RECORDS=${RECORDS:-20000}

echo "== chaos acceptance tests (race, cpu 1,2,4 x2, seeds: $SEEDS) =="
# Includes the checked sweep (TestChaosCheckedSweep: every preset x seed
# diffed against the sequential reference oracle), the KV
# linearizability sweep and the stale-read checker self-test.
CHAOS_SEEDS="$SEEDS" go test -race -run 'TestChaos' . -cpu 1,2,4 -count=2

echo "== control-plane HA sweep (race, cpu 1,2,4 x2, seeds: $SEEDS) =="
# Namenode leader crash + coordinator crash mid-job under the "ha"
# preset: the job must finish, record a failover and resume journaled
# stages (TestHAAcceptance), deterministically (TestHADeterministicReplay).
HA_SEEDS="$SEEDS" go test -race -run 'TestHA' . -cpu 1,2,4 -count=2

echo "== stream exactly-once recovery sweep (race, cpu 1,2,4 x2, seeds: $SEEDS) =="
STREAM_SEEDS="$SEEDS" go test -race -run 'TestStream' . -cpu 1,2,4 -count=2
go test -race -run 'TestPipelineCloseRace|TestSessionizerCloseRace|TestRunner' \
    ./internal/stream/ -count=1

echo "== overload admission sweep (race, seeds: $SEEDS) =="
# The defended stack must hold goodput flat and histories linearizable
# at 2x saturation for every seed; the control run must collapse.
OVL_SEEDS=$(echo "$SEEDS" | tr ' ' ',') go test -race -run 'TestOverload' . -count=1

echo "== sharded txn gauntlet (race, seeds: $SEEDS) =="
# Cross-range 2PC under rotating coordinator crash points, partitions
# spanning the commit point and splits racing live transactions: every
# history strictly serializable, zero dangling locks/records, and the
# dirty-read injection caught (TestTxnAcceptance*).
TXN_SEEDS=$(echo "$SEEDS" | tr ' ' ',') go test -race -run 'TestTxnAcceptance' . -count=1

echo "== gray-failure sweep (race, seeds: $SEEDS) =="
# Asymmetric faults (one-way cuts, non-transitive partial partitions):
# the vanilla control must livelock, the hardened cluster must bound
# unavailability and term growth on the same (schedule, seed), and the
# replay must be deterministic (TestGrayAcceptance*).
GRAY_SEEDS=$(echo "$SEEDS" | tr ' ' ',') go test -race -run 'TestGray' . -count=1

echo "== building race-enabled terasort =="
tmpbin=$(mktemp -d)
trap 'rm -rf "$tmpbin"' EXIT
go build -race -o "$tmpbin/hpbdc-terasort" ./cmd/hpbdc-terasort

for preset in $PRESETS; do
    for seed in $SEEDS; do
        echo "== chaos sweep: preset=$preset seed=$seed =="
        "$tmpbin/hpbdc-terasort" -records "$RECORDS" -seed "$seed" \
            -chaos "$preset" -speculation
    done
done

echo "== oracle-checked experiment pass (EFT, E-SFT, E-HA, E-OVL, E-TXN, E-GRAY, E-SQL, E5) =="
# Every chaos run above re-ran the job; this pass ends the sweep with the
# experiment suite's own verdicts: batch oracle diffs (EFT), stream
# window oracles (E-SFT), control-plane failover oracles (E-HA),
# overload-with-shedding linearizability (E-OVL), sharded-txn strict
# serializability (E-TXN), gray-failure availability bounds and teeth
# (E-GRAY), relational differential checks incl. a crash-preset replay
# (E-SQL) and plain quorum linearizability (E5). -check exits nonzero on
# any mismatch.
go run ./cmd/hpbdc-bench -small -run EFT,E-SFT,E-HA,E-OVL,E-TXN,E-GRAY,E-SQL,E5 -check

echo "== linearizability checker self-test (must fail under -stale) =="
if go run ./cmd/hpbdc-kvbench -ops 2000 -keys 200 -check -stale >/dev/null 2>&1; then
    echo "chaos sweep: stale-read injection was NOT caught by the checker" >&2
    exit 1
fi
echo "stale-read injection correctly rejected"

echo "chaos sweep: OK"
