#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every commit.
#
#   scripts/tier1.sh
#
# Checks formatting, builds the workspace in release mode (the stress
# suites and smokes below depend on it), runs the full test suite and holds
# the code to a warning-free clippy bar.
set -euo pipefail

cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --release --workspace
cargo test -q --workspace
cargo clippy --all-targets --workspace -- -D warnings

# Commit-oracle gates: `ConcurrentOracle` against its model
# `StatusOracleCore` — property tests for SI, WSI, and the bounded
# Algorithm-3 variant (exact OracleStats equality, §5.2 ranges included) —
# and the multi-threaded stress suites again in release mode (the debug run
# above is too slow to shake out interleavings): the increment herds at all
# three isolation levels, and the commit-pipeline suite with its write-skew
# herd under WSI and SSI.
cargo test -q -p wsi-core --test oracle_equivalence
cargo test -q --release -p wsi-store --test oracle_stress --test concurrency_stress

# One commit-decision backend: fail if a deleted oracle, option, metric
# family, journal event or DST engine reappears.
if grep -rnE 'OracleMode|serial_oracle|batched_oracle|oracle_shards\b|BatchedOracle|EpochPublisher|EpochObs|oracle_epoch|PendingBatches|push_sync_group|record_commits_with|WsiBatched|wsi-batched|EpochSeal|EpochPublish' \
    crates/ src/ tests/ examples/; then
    echo "error: a deleted commit-oracle backend, option or event is back (see above)" >&2
    exit 1
fi

# One engine: SSI is an isolation level of `Db`. Fail if the forked engine,
# its private durability hook, the DST dispatch enums or the sampled span
# tracer reappear (`txn_e2e` has an unrelated `SpanRecorder` of its own).
if grep -rnE 'SsiDb|ssi_db|SsiTransaction|commit_durable|wal_overturned|Engine::Ssi|Txn::Ssi|SpanRecorder|TxnSpan|traces_json' \
    --exclude-dir=txn_e2e crates/ src/ tests/ examples/; then
    echo "error: the SSI engine fork or the span tracer is back (see above)" >&2
    exit 1
fi

# Version-store gates: the store against the sequential model (proptest
# over randomized interleavings, all three isolation levels — it runs in the
# workspace suite above), and the 8-thread invariant herd again in release
# mode, with its concurrent GC/reclamation thread and the table-growth
# herd, plus the metrics exposition.
cargo test -q --release -p wsi-store --test store_stress

# One version store, one configuration: fail if a deleted layout, knob or
# metric family reappears.
if grep -rnE 'StoreLayout|store_shards|store_layout|arena_adaptive|prune_chain_len|LockedStore|arena_flat|StoreShardObs|store_shard_' \
    crates/ src/ tests/ examples/; then
    echo "error: a deleted version-store layout, knob or metric is back (see above)" >&2
    exit 1
fi

# One store benchmark, one observability switch: fail if a bench family
# `txn_e2e` superseded, a `DbOptions` knob that served only those benches or
# the oracle's second commit table reappears.
if grep -rnE 'store_concurrency|mvcc_scaling|trace_overhead|bench_smoke|seeded_retries|retry_seed|backoff_state|STATUS_SHARDS|status_shard' \
    crates/ src/ tests/ examples/ .claude/; then
    echo "error: a retired bench family, DbOptions knob or commit table is back (see above)" >&2
    exit 1
fi

# End-to-end benchmark smoke: one second's worth of `uniform_complex_1t`
# through the whole begin → get/put → commit → GC loop, traced. The binary
# exits non-zero on `correct=false` or `steady_state=false`, so a GC that
# leaks versions (a key that falls off the dirty-key worklist) or
# incremental key/version counts that drift fail the gate here and not
# only in the benchmark pipeline. The trace file lands under target/.
cargo run --release --quiet -p wsi-bench --bin txn_e2e -- \
  --workload uniform_complex_1t --seed 1 --seconds 1 --trace 1 >/dev/null

# Lock-free protocol models, fast configuration: chain-head CAS publish
# vs. concurrent readers, epoch advance vs. retire/free, the packed-node
# claim/seal occupancy protocol, the migration splice vs. a mid-chain
# reader, chain-head table growth vs. a reader, and the GC's dirty-flag
# worklist handshake. 32 fuzzed schedules per model keeps the gate
# seconds-scale; the default (64) runs when the suite is invoked without
# LOOM_MAX_ITERS.
LOOM_MAX_ITERS=32 cargo test -q --release -p wsi-store --features loom --test loom_protocols

# Deterministic simulation gate: the seeded fault matrix (every isolation
# level × every fault plan × three seeds, both oracles armed on every run) plus
# the same-seed replay regression and the planted-bug canary. Any oracle
# panic prints a DST_SEED=… repro line — copy-paste it verbatim to replay
# the failing schedule byte-for-byte, and dumps the flight-recorder
# journal tail alongside it.
cargo test -q -p wsi-dst

# Flight-recorder gates: journal/counter/WAL reconciliation at all three
# isolation levels, culprit-attributed abort forensics for each conflict class
# (WW under SI, RW under WSI, pivot under SSI), and the retry-report
# surface of Db::run. These run in the workspace suite above too; naming
# them here makes the observability bar explicit and keeps a local
# `cargo test -p wsi-store` green insufficient to skip them.
cargo test -q -p wsi-store --test obs_reconcile
cargo test -q -p wsi-store --test explain_abort
cargo test -q -p wsi-store --test retry_report

# The figure harness (the paper's reproduction on the simulator) still runs.
./target/release/figures m1 >/dev/null
