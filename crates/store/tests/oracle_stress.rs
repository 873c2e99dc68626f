//! Racy stress tests for the commit-decision path of the default `Db`.
//!
//! The oracle's claims are concurrency claims: decisions are mutually
//! exclusive under the one decision lock, and the commit timestamp is
//! issued while that lock is held so per-row timestamps stay monotonic. These tests run 8-thread herds over a small
//! hot key set and verify the observable invariants directly from the
//! commit log the threads record:
//!
//! * **No lost updates** — every counter's final value equals the number of
//!   successful increments against it.
//! * **Per-row monotonic commit timestamps** — ordering a key's increments
//!   by commit timestamp yields the exact value sequence `1..=n`, and all
//!   commit timestamps are globally unique.
//! * **Obs reconciliation** — afterwards, `begins == commits + read-only
//!   commits + aborts` and no transaction is left registered.
//!
//! The sync-WAL herd additionally recovers the ledger and asserts state
//! equality with the live database.

use std::sync::Mutex;
use std::thread;

use wsi_core::IsolationLevel;
use wsi_store::{Db, DbOptions};
use wsi_wal::LedgerConfig;

const THREADS: usize = 8;
const KEYS: usize = 8;

/// One successful increment: the value written and the commit timestamp
/// that wrote it.
type IncrementLog = Vec<Mutex<Vec<(u64, u64)>>>;

fn key_name(k: usize) -> Vec<u8> {
    format!("counter/{k}").into_bytes()
}

/// Increments `key` once with manual retries, recording `(value, commit_ts)`
/// on success.
fn increment_logged(db: &Db, k: usize, log: &IncrementLog) {
    let key = key_name(k);
    for _attempt in 0..100_000 {
        let mut txn = db.begin();
        let n: u64 = txn
            .get(&key)
            .map(|v| String::from_utf8_lossy(&v).parse().unwrap())
            .unwrap_or(0);
        txn.put(&key, (n + 1).to_string().as_bytes());
        match txn.commit() {
            Ok(commit_ts) => {
                log[k].lock().unwrap().push((n + 1, commit_ts.raw()));
                return;
            }
            Err(wsi_store::Error::Aborted(_)) => continue,
            Err(e) => panic!("non-conflict commit failure: {e:?}"),
        }
    }
    panic!("increment exhausted its retry budget");
}

/// The herd: 8 threads, each walking the key ring from a different offset,
/// so every key is contended by every thread.
fn run_herd(db: &Db, increments: u64) -> IncrementLog {
    let log: IncrementLog = (0..KEYS).map(|_| Mutex::new(Vec::new())).collect();
    thread::scope(|s| {
        for t in 0..THREADS {
            let db = db.clone();
            let log = &log;
            s.spawn(move || {
                for i in 0..increments {
                    increment_logged(&db, (t + i as usize) % KEYS, log);
                }
            });
        }
    });
    log
}

fn assert_invariants(db: &Db, log: &IncrementLog, increments: u64) {
    let mut all_ts: Vec<u64> = Vec::new();
    for (k, per_key) in log.iter().enumerate() {
        let mut entries = per_key.lock().unwrap().clone();
        entries.sort_by_key(|&(_, ts)| ts);
        // No lost updates: the final stored value is the increment count.
        let stored: u64 = db
            .snapshot()
            .get(&key_name(k))
            .map(|v| String::from_utf8_lossy(&v).parse().unwrap())
            .unwrap_or(0);
        assert_eq!(
            stored,
            entries.len() as u64,
            "key {k}: stored value diverged from successful increments"
        );
        // Monotonic per-row commit timestamps: in commit-ts order the
        // values must be the exact sequence 1..=n — any inversion (a later
        // commit observing an older value) breaks the chain.
        for (idx, &(value, ts)) in entries.iter().enumerate() {
            assert_eq!(
                value,
                idx as u64 + 1,
                "key {k}: value sequence broken at commit_ts {ts}"
            );
        }
        all_ts.extend(entries.iter().map(|&(_, ts)| ts));
    }
    assert_eq!(
        all_ts.len() as u64,
        THREADS as u64 * increments,
        "every increment recorded exactly once"
    );
    // Commit timestamps are globally unique (one shared atomic counter).
    all_ts.sort_unstable();
    let before = all_ts.len();
    all_ts.dedup();
    assert_eq!(before, all_ts.len(), "duplicate commit timestamps");
    // The ledger of fates balances: every begin resolved exactly one way.
    let stats = db.stats();
    assert_eq!(stats.active_transactions, 0, "every txn deregistered");
    assert_eq!(
        stats.oracle.begins,
        stats.oracle.commits + stats.oracle.total_aborts() + stats.oracle.read_only_commits,
        "begins must reconcile with outcomes: {stats:?}"
    );
}

#[test]
fn wsi_herd_keeps_invariants() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let log = run_herd(&db, 120);
    assert_invariants(&db, &log, 120);
}

#[test]
fn si_herd_keeps_invariants() {
    let db = Db::open(DbOptions::new(IsolationLevel::Snapshot));
    let log = run_herd(&db, 120);
    assert_invariants(&db, &log, 120);
}

#[test]
fn ssi_herd_keeps_invariants() {
    // The window mutex nests inside the decision lock on every write commit;
    // the increments are read-modify-writes of one row, so the SI base
    // refuses the losers and the window sees only survivors.
    let db = Db::open(DbOptions::new(IsolationLevel::SerializableSnapshot));
    let log = run_herd(&db, 120);
    assert_invariants(&db, &log, 120);
}

#[test]
fn wsi_sync_wal_herd_keeps_invariants() {
    // Sync durability layers the pipeline's publish-after-durable protocol
    // on top of the decision lock; the lock hierarchy must stay acyclic under
    // load (a deadlock here hangs the test).
    let db = Db::open(
        DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig::default_replicated()),
    );
    let log = run_herd(&db, 30);
    assert_invariants(&db, &log, 30);
    db.flush_wal().unwrap();
    // And the WAL replays to the same state, out-of-order disjoint commits
    // included.
    let recovered = Db::recover(
        DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig::default_replicated()),
        db.wal_snapshot().unwrap(),
    )
    .unwrap();
    for k in 0..KEYS {
        assert_eq!(
            db.snapshot().get(&key_name(k)),
            recovered.snapshot().get(&key_name(k)),
            "key {k} diverged after recovery"
        );
    }
}

#[test]
fn shard_metrics_are_registered_and_plausible() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let _ = run_herd(&db, 40);
    let prom = db.render_prometheus();
    for series in ["oracle_shard_contention_total", "oracle_shard_lock_wait_us"] {
        assert!(prom.contains(series), "missing series {series}");
    }
    // One wait sample per contended acquisition of the decision lock and
    // none for an uncontended one, which reads no clock.
    let snap = db.obs_snapshot().unwrap();
    let wait = snap
        .histograms
        .get("oracle_shard_lock_wait_us")
        .expect("decision-lock wait histogram present");
    let contended = snap.counters["oracle_shard_contention_total"];
    assert_eq!(
        wait.count, contended,
        "one wait sample per contended acquisition"
    );
    // At WSI with no WAL every write commit attempt takes the decision lock
    // once and nothing else takes it, so no more acquisitions contend than
    // there were write decisions.
    let oracle = db.stats().oracle;
    assert!(
        contended <= oracle.commits + oracle.rw_aborts,
        "{contended} contended acquisitions over {oracle:?}"
    );
}
