#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every commit.
#
#   scripts/tier1.sh
#
# Checks formatting, builds the workspace in release mode (the stress
# suites and smokes below depend on it), runs the full test suite and holds
# the code to a warning-free clippy and rustdoc bar.
set -euo pipefail

cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --release --workspace
# The workspace run holds, among the rest: Algorithm 3 (`StatusOracleCore`
# bounded) against the exact decisions on histories that keep up to four
# transactions open and commit them out of order (`oracle_equivalence`),
# the store's `mvcc_model` and its directed certification tests (`db.rs`),
# the `wsi-dst` seeded fault matrix checked by
# the shared isolation check (`wsi_history::check`) with its
# same-seed replay and planted-bug canary (an oracle panic prints a
# DST_SEED=… line that replays the failing schedule byte-for-byte), and the
# flight-recorder suites (`obs_reconcile`, `explain_abort`, `retry_report`).
cargo test -q --workspace
cargo clippy --all-targets --workspace -- -D warnings
# Rustdoc with warnings denied: a doc link to a renamed or private item
# fails here rather than rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

# The multi-threaded stress suites again in release mode (the debug run
# above is too slow to shake out interleavings): the increment herds at all
# three isolation levels, the commit-pipeline suite with its write-skew and
# reclamation herds (their recorded histories held to `wsi_history::check`
# under SI, WSI and SSI; the reclamation herd's readers hold snapshots across
# the ticks whose per-commit shares sweep superseded versions and free retired
# ones, once more beside a thread looping `Db::gc`) and its lost-wake-up herd (8 committers on the sync WAL
# through a quorum loss, under a watchdog), and the version store's 8-thread
# invariant herd with its concurrent GC/reclamation thread and the
# table-growth herd.
cargo test -q --release -p wsi-store --test oracle_stress --test concurrency_stress --test store_stress

# End-to-end benchmark smoke: one second's worth of `uniform_complex_1t`
# through the whole begin → get/put → commit → GC loop, traced. The binary
# exits non-zero on `correct=false` or `steady_state=false`, so a GC that
# leaks versions (a key that falls off the dirty-key worklist) or
# incremental key/version counts that drift fail the gate here and not
# only in the benchmark pipeline. The trace file lands under target/.
cargo run --release --quiet -p wsi-bench --bin txn_e2e -- \
  --workload uniform_complex_1t --seed 1 --seconds 1 --trace 1 >/dev/null
# The same second on the two-thread sync-WAL workload, untraced: the commit
# pipeline's spin-then-park waits, the snapshot gate and owner-side stamping
# under the binary's value, identity and steady-state checks.
cargo run --release --quiet -p wsi-bench --bin txn_e2e -- \
  --workload uniform_complex_sync_2t --seed 1 --seconds 1 --trace 0 >/dev/null
# And on hot keys, the one workload that retries: two clients on zipfian
# keys rewrite the same chains, so insert-time pruning, backoff and the
# serial token that a starving `Db::run` escalates to run under the value
# check, which fails the binary on a transaction out of retries
# (`failed > 0`).
cargo run --release --quiet -p wsi-bench --bin txn_e2e -- \
  --workload zipf_complex_2t --seed 1 --seconds 1 --trace 0 >/dev/null

# Concurrency protocol models, fast configuration: chain-head CAS publish
# vs. concurrent readers, watermark reclamation (a retire tag drawn after
# the unlink) vs. a registered walker, the test-and-set spinlock the
# oracle's decision lock runs on, chain-head table growth vs. a reader,
# the GC's dirty-flag
# worklist handshake, the commit pipeline's spin-then-park hand-off
# (its one mutex-and-condvar protocol), the snapshot read's stamp
# re-read vs. an owner that deregisters, with its planted no-re-read
# canary that must fail, and commit, begin and read on the registry lock,
# with its planted canary (the commit timestamp drawn outside the
# lock) that must fail. 32 fuzzed schedules per model
# keeps the gate seconds-scale; the default (64) runs when the suite is
# invoked without LOOM_MAX_ITERS.
LOOM_MAX_ITERS=32 cargo test -q --release -p wsi-store --features loom --test loom_protocols

# The figure harness (the paper's reproduction on the simulator) still runs.
./target/release/figures m1 >/dev/null
# Extension E1 (SI vs WSI vs SSI on one zipfian schedule) is a golden: the
# three levels' decisions, through the one sequential oracle, must not move.
# scripts/figures_golden.sh diffs every figure the same way; at about two
# and a half minutes it is not part of this gate.
./target/release/figures ssi | grep -v '^done in' | diff - results/e1_ssi.txt

# Non-test line counts of the version store's, the log's, the oracle's and
# the observability layer's sources, then of the simulator's cluster,
# region-server and status-oracle models, and the byte sizes of the prose
# documents, for the record of what a change added or removed.
# Informational: they gate nothing.
scripts/loc.sh
scripts/loc.sh crates/wal/src
scripts/loc.sh crates/core/src
scripts/loc.sh crates/obs/src
scripts/loc.sh crates/cluster/src
scripts/loc.sh crates/kvstore/src
scripts/loc.sh crates/oracle/src
scripts/prose.sh
