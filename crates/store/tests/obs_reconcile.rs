//! Cross-layer metric reconciliation under a concurrent workload.
//!
//! The observability layer is only trustworthy if independent counters
//! agree: every transaction that begins must end exactly once (commit,
//! read-only commit, or abort), every commit the oracle counts must have
//! exactly one durable commit record in the WAL, and every version the
//! arena store retires must be accounted as freed or in limbo. This test
//! drives a racy multi-threaded workload and checks the identities, plus
//! that the registry exposition sees the same numbers as `Db::stats()`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;

use wsi_core::IsolationLevel;
use wsi_store::{
    decode_record, Cause, Db, DbOptions, Event, EventData, LogSuffix, StoreRecord, WalCensus,
    ESCALATE_AFTER,
};
use wsi_wal::LedgerConfig;

const THREADS: usize = 8;
const TXNS_PER_THREAD: usize = 150;
const KEYS: u64 = 64;

/// Drives the racy mixed workload (read-modify-writes, rollbacks,
/// read-only transactions) from [`THREADS`] threads.
fn drive_workload(db: &Arc<Db>) {
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = Arc::clone(db);
            thread::spawn(move || {
                for i in 0..TXNS_PER_THREAD {
                    let k1 = ((t * TXNS_PER_THREAD + i) as u64 * 7) % KEYS;
                    let k2 = (k1 + 13) % KEYS;
                    match i % 5 {
                        // Read-modify-write pairs that race on a small key
                        // space: some commit, some hit rw-conflicts.
                        0..=2 => {
                            let mut txn = db.begin();
                            let _ = txn.get(k1.to_be_bytes().as_slice());
                            let _ = txn.get(k2.to_be_bytes().as_slice());
                            txn.put(k1.to_be_bytes().as_slice(), b"v");
                            let _ = txn.commit();
                        }
                        // Client-side rollbacks.
                        3 => {
                            let mut txn = db.begin();
                            txn.put(k1.to_be_bytes().as_slice(), b"discard");
                            txn.rollback();
                        }
                        // Read-only transactions (never conflict-checked).
                        _ => {
                            let mut txn = db.begin();
                            let _ = txn.get(k1.to_be_bytes().as_slice());
                            let _ = txn.commit();
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn lifecycle_counters_reconcile_across_layers() {
    let db = Arc::new(Db::open(
        DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig::default_replicated()),
    ));
    drive_workload(&db);
    // A handful of snapshots: their drops count as read-only commits.
    for _ in 0..3 {
        let snap = db.snapshot();
        drop(snap);
    }
    // A GC pass exercises the retire path so the reclamation identity below
    // is checked against non-trivial counts.
    let _ = db.gc();
    // Before the counters are read: the flush appends the conflict-abort
    // records still queued behind the last group commit.
    db.flush_wal().expect("healthy quorum");

    let stats = db.stats();
    let oracle = stats.oracle;

    // Identity 1: every begin ended exactly once.
    assert_eq!(
        oracle.begins,
        (THREADS * TXNS_PER_THREAD) as u64 + 3,
        "begins match the driven workload"
    );
    assert_eq!(
        oracle.begins,
        oracle.commits + oracle.read_only_commits + oracle.total_aborts(),
        "begins == commits + read-only commits + aborts"
    );
    assert!(oracle.commits > 0, "some writers must have committed");
    assert!(
        oracle.client_aborts >= (THREADS * TXNS_PER_THREAD / 5) as u64,
        "every rollback counted"
    );

    // Identity 2: oracle commits == durable WAL commit records, and
    // per-reason aborts (minus pre-WAL client rollbacks, which never reach
    // the pipeline) == WAL abort records. The `gc` above checkpointed and
    // truncated the log: the records it dropped count through the newest
    // checkpoint's census.
    let census = wal_census(&db.wal_snapshot().expect("db is durable"));
    assert_eq!(
        oracle.commits, census.commits,
        "every commit persisted once"
    );
    assert_eq!(
        oracle.total_aborts() - oracle.client_aborts,
        census.aborts,
        "every conflict abort persisted once"
    );

    // Identity 3: the exposition registry sees the same counters.
    let snap = db.obs_snapshot().expect("obs enabled by default");
    assert_eq!(
        snap.counters.get("oracle_begins_total"),
        Some(&oracle.begins)
    );
    assert_eq!(
        snap.counters.get("oracle_commits_total"),
        Some(&oracle.commits)
    );
    assert_eq!(
        snap.counters.get("wal_records_total"),
        Some(&stats.wal.records)
    );
    let txn_us = snap.histograms.get("store_txn_us").expect("txn histogram");
    assert_eq!(
        txn_us.count, oracle.commits,
        "one end-to-end latency sample per committed write transaction"
    );

    // Identity 4: the arena store's footprint gauges (set as the snapshot
    // is taken) equal the aggregate key/version totals that `DbStats`
    // reports — the exposition loses nothing.
    assert_eq!(
        snap.gauges.get("store_arena_keys"),
        Some(&(stats.keys as u64)),
        "arena key gauge equals stats"
    );
    assert_eq!(
        snap.gauges.get("store_arena_versions"),
        Some(&(stats.versions as u64)),
        "arena version gauge equals stats"
    );

    // Identity 5: reclamation balances. Every retired version is
    // either freed or still in limbo — across `Db::reclamation()`, the
    // exported counters, and the limbo gauge.
    let rec = db.reclamation();
    assert_eq!(
        rec.retired,
        rec.freed + rec.limbo,
        "retired == freed + limbo"
    );
    assert!(
        rec.retired > 0,
        "the GC pass retired superseded/aborted versions"
    );
    assert_eq!(
        snap.counters.get("store_versions_retired_total"),
        Some(&rec.retired)
    );
    assert_eq!(
        snap.counters.get("store_versions_freed_total"),
        Some(&rec.freed)
    );
    assert_eq!(snap.gauges.get("store_limbo_versions"), Some(&rec.limbo));
    assert_eq!(snap.gauges.get("store_arena_chunks"), Some(&rec.chunks));
    assert!(rec.chunks > 0, "the workload allocated at least one chunk");

    // The Prometheus text round-trips losslessly.
    let text = db.render_prometheus();
    let parsed = wsi_obs::Snapshot::parse_prometheus(&text).unwrap();
    assert_eq!(parsed, snap);
}

/// The footprint gauges are current whenever they are read: a snapshot
/// taken before any `stats` or `gc` exports what `stats` reports.
#[test]
fn footprint_gauges_are_current_when_read() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    for k in 0..10u8 {
        let mut txn = db.begin();
        txn.put(&[k], b"v");
        txn.commit().expect("single writer commits");
    }
    let snap = db.obs_snapshot().expect("obs on");
    let stats = db.stats();
    assert_eq!((stats.keys, stats.versions), (10, 10));
    assert_eq!(snap.gauges["store_arena_keys"], stats.keys as u64);
    assert_eq!(snap.gauges["store_arena_versions"], stats.versions as u64);
}

/// A WAL snapshot is a copy of the log, not a second handle on it: commits
/// on the live database and on one recovered from the snapshot each move
/// only their own `wal_records_total`, and the recovered one counts on from
/// the snapshot's.
#[test]
fn a_recovered_db_counts_its_own_wal_records() {
    let options = || {
        DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig::default_replicated())
    };
    let records = |db: &Db| db.obs_snapshot().expect("obs on").counters["wal_records_total"];
    let commit = |db: &Db, k: u8| {
        let mut txn = db.begin();
        txn.put(&[k], b"v");
        txn.commit().expect("single writer commits");
    };
    let live = Db::open(options());
    for k in 0..5 {
        commit(&live, k);
    }
    let snapshot = live.wal_snapshot().expect("durable");
    let at_snapshot = records(&live);
    assert_eq!(snapshot.stats().records, at_snapshot);
    let recovered = Db::recover(options(), snapshot).expect("recovers");
    assert_eq!(records(&recovered), at_snapshot);
    for k in 0..3 {
        commit(&recovered, k);
    }
    assert_eq!(records(&live), at_snapshot, "the live log did not move");
    let after = records(&recovered);
    assert!(after >= at_snapshot + 3, "{after} < {at_snapshot} + 3");
    assert_eq!(recovered.stats().wal.records, after);
    commit(&live, 9);
    assert!(records(&live) > at_snapshot);
    assert_eq!(records(&recovered), after, "the recovered log did not move");
}

/// README's metric catalogue is the registry's: every series a durable SSI
/// database registers has a row of its kind, and every row names a
/// registered series.
#[test]
fn readme_catalogue_matches_the_registry() {
    let db = Db::open(
        DbOptions::new(IsolationLevel::SerializableSnapshot)
            .durable(LedgerConfig::default_replicated()),
    );
    let snap = db.obs_snapshot().expect("obs on");
    let registered: BTreeSet<(String, &str)> = snap
        .counters
        .keys()
        .map(|name| (name.clone(), "counter"))
        .chain(snap.gauges.keys().map(|name| (name.clone(), "gauge")))
        .chain(
            snap.histograms
                .keys()
                .map(|name| (name.clone(), "histogram")),
        )
        .collect();
    let readme = include_str!("../../../README.md");
    let (_, catalogue) = readme
        .split_once("Metric catalog")
        .expect("README has a metric catalogue");
    let mut documented = BTreeSet::new();
    let rows = catalogue
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2);
    for row in rows {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        for name in cells[1].split(',').map(|n| n.trim().trim_matches('`')) {
            documented.insert((name.to_string(), cells[2]));
        }
    }
    assert_eq!(documented, registered);
}

/// The paper's §6.3 cost claim on the embedded store: WSI certifies the read
/// set where SI certifies the write set and both record the write set, so a
/// conflict-free read-2-write-1 transaction checks exactly twice the rows
/// under WSI and records the same number under both.
#[test]
fn wsi_checks_twice_the_rows_si_checks_and_records_the_same() {
    const TXNS: u64 = 200;
    for (isolation, checked_per_txn) in [
        (IsolationLevel::Snapshot, 1),
        (IsolationLevel::WriteSnapshot, 2),
    ] {
        let db = Db::open(DbOptions::new(isolation));
        for i in 0..TXNS {
            let mut txn = db.begin();
            let _ = txn.get((2 * i).to_be_bytes().as_slice());
            let _ = txn.get((2 * i + 1).to_be_bytes().as_slice());
            txn.put((2 * i).to_be_bytes().as_slice(), b"v");
            txn.commit().expect("one thread: nothing to conflict with");
        }
        let oracle = db.stats().oracle;
        assert_eq!(oracle.commits, TXNS, "{isolation:?}");
        assert_eq!(oracle.rows_checked, checked_per_txn * TXNS, "{isolation:?}");
        assert_eq!(oracle.rows_recorded, TXNS, "{isolation:?}");
    }
}

/// Identity 6: chain metrics reconcile. A single-threaded hot-key
/// workload, long enough for the tick to note a watermark, must show
/// insert-time pruning in `store_arena_inline_pruned_total`, a
/// `store_chain_len` histogram with one sample per publish, every pruned
/// and swept version flowing through the retired/freed/limbo identity, and
/// `store_chain_migrations_total` still registered at 0: no chain
/// migrates, one node kind is left.
#[test]
fn chain_metrics_reconcile() {
    let db = Arc::new(Db::open(DbOptions::new(IsolationLevel::WriteSnapshot)));
    for i in 0u32..300 {
        let mut txn = db.begin();
        txn.put(b"hot-a", format!("a{i}").as_bytes());
        txn.put(b"hot-b", format!("b{i}").as_bytes());
        txn.commit().expect("single writer commits");
    }
    let _ = db.gc();

    let rec = db.reclamation();
    let snap = db.obs_snapshot().expect("obs enabled by default");
    assert!(
        snap.counters["store_arena_inline_pruned_total"] > 0,
        "hot chains were pruned between sweeps"
    );
    assert_eq!(
        rec.retired,
        rec.freed + rec.limbo,
        "pruned and swept versions all flow through the limbo accounting"
    );
    assert_eq!(
        snap.counters.get("store_versions_retired_total"),
        Some(&rec.retired)
    );
    assert_eq!(snap.counters.get("store_chain_migrations_total"), Some(&0));
    let chain_len = snap
        .histograms
        .get("store_chain_len")
        .expect("chain-length histogram registered");
    assert_eq!(
        chain_len.count, 600,
        "one chain-length sample per published version"
    );
}

/// One `Db::run` that starves: its first `ESCALATE_AFTER` attempts each
/// meet a rival commit of the key they read and write, and the next one,
/// which holds the serial token, commits.
fn starve(db: &Db) {
    let mut calls = 0;
    db.run(ESCALATE_AFTER, |t| {
        calls += 1;
        let _ = t.get(b"k");
        t.put(b"k", b"starved");
        if calls <= ESCALATE_AFTER {
            let mut rival = db.begin();
            rival.put(b"k", b"rival");
            rival.commit().expect("the rival commits");
        }
        Ok(())
    })
    .expect("the escalated attempt commits");
}

/// Escalations reconcile at every level: `store_escalations_total` equals
/// the journal's `Escalate` events, and each follows the `Retry` events of
/// the `ESCALATE_AFTER` attempts its run had failed.
#[test]
fn escalations_reconcile_with_the_journal() {
    for isolation in [
        IsolationLevel::Snapshot,
        IsolationLevel::WriteSnapshot,
        IsolationLevel::SerializableSnapshot,
    ] {
        let db = Db::open(DbOptions::new(isolation));
        starve(&db);
        starve(&db);
        let snap = db.obs_snapshot().expect("obs enabled by default");
        let events = db.journal().expect("journal").snapshot();
        let mut escalations = 0;
        let mut retries = Vec::new();
        for e in &events {
            match e.data {
                EventData::Retry { attempt } => retries.push(attempt),
                EventData::Escalate { attempt } => {
                    escalations += 1;
                    let expected: Vec<u64> = (1..=ESCALATE_AFTER as u64).collect();
                    assert_eq!(retries, expected, "{isolation:?}: the retries before");
                    assert_eq!(attempt, ESCALATE_AFTER as u64 + 1, "{isolation:?}");
                    retries.clear();
                }
                _ => {}
            }
        }
        assert!(
            retries.is_empty(),
            "{isolation:?}: no retry after escalating"
        );
        assert_eq!(escalations, 2, "{isolation:?}");
        assert_eq!(
            snap.counters.get("store_escalations_total"),
            Some(&escalations),
            "{isolation:?}"
        );
    }
}

/// Identity 7: the worklist GC's own series reconcile. A sweep visits at
/// least the keys that lost a version; the worklist gauge counts the keys
/// queued in both generations, so after a `gc` it says how many keys the
/// sweep had to re-queue — non-zero exactly while a snapshot holds the
/// watermark below superseded versions, zero at quiescence — and the
/// keys it is holding for are dropped by the first sweep after the
/// snapshot ends, with no write in between; the chain-head table always
/// has at least a slot per key.
#[test]
fn worklist_and_head_table_metrics_reconcile() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let gauge = |name: &str| db.obs_snapshot().expect("obs on").gauges[name];
    let counter = |name: &str| db.obs_snapshot().expect("obs on").counters[name];
    let write = |keys: std::ops::Range<u32>, value: &[u8]| {
        let mut txn = db.begin();
        for k in keys {
            txn.put(format!("key-{k:04}").as_bytes(), value);
        }
        txn.commit().expect("single writer commits");
    };

    write(0..1_000, b"v1");
    let first = db.gc();
    assert_eq!(first.versions_dropped, 0, "nothing superseded yet");
    assert_eq!(counter("store_gc_keys_visited_total"), 1_000);
    assert_eq!(gauge("store_gc_worklist_len"), 0);

    // A snapshot pins the watermark, then 40 keys are overwritten: their
    // old versions are still the snapshot's, so two sweeps drop nothing
    // and keep exactly those 40 keys queued.
    let snap = db.snapshot();
    write(0..40, b"v2");
    for sweep in 1..=2u64 {
        let held = db.gc();
        assert_eq!(held.versions_dropped, 0, "the snapshot still reads v1");
        assert_eq!(gauge("store_gc_worklist_len"), 40);
        assert_eq!(
            counter("store_gc_keys_visited_total"),
            1_000 + 40 * sweep,
            "a sweep visits the keys written or held back, not the key space"
        );
        assert_eq!(db.stats().versions, 1_040);
        assert_eq!(snap.get(b"key-0007").as_deref(), Some(&b"v1"[..]));
    }
    drop(snap);

    // No write since: the sweep finds the 40 keys on its own.
    let released = db.gc();
    assert_eq!(released.versions_dropped, 40);
    assert_eq!(gauge("store_gc_worklist_len"), 0, "quiescent, no snapshot");
    let visited = counter("store_gc_keys_visited_total");
    assert_eq!(visited, 1_000 + 40 * 3);
    assert!(
        visited >= released.versions_dropped,
        "keys visited ≥ keys that lost a version"
    );
    let idle = db.gc();
    assert_eq!(idle, wsi_store::GcStats::default());
    assert_eq!(
        counter("store_gc_keys_visited_total"),
        visited,
        "an idle sweep visits nothing"
    );

    let stats = db.stats();
    assert_eq!((stats.keys, stats.versions), (1_000, 1_000));
    assert_eq!(gauge("store_arena_keys"), 1_000);
    assert_eq!(gauge("store_arena_versions"), 1_000);
    assert!(
        gauge("store_head_table_slots") >= stats.keys as u64,
        "slots ≥ keys"
    );
    assert!(
        counter("store_head_table_grows_total") >= 4,
        "1 000 keys outgrew the 64-slot first generation several times"
    );
}

/// Identity 8: the commit pipeline's wait series reconcile. A wait is one
/// spin on the round generation and a park is a wait that outlasted it, so
/// `parks ≤ waits` at both wait sites; `store_begin_gate_wait_us` takes one
/// sample per begin that waited at all — at most one per gate wait, and
/// some exactly when there were gate waits. One client never finds a round
/// in progress, and without a WAL there is no pipeline: all of it is zero.
#[test]
fn pipeline_wait_metrics_reconcile() {
    let wsi = IsolationLevel::WriteSnapshot;
    let durable = || DbOptions::new(wsi).durable(LedgerConfig::default_replicated());
    const SITES: [(&str, &str); 2] = [
        ("store_gate_waits_total", "store_gate_parks_total"),
        ("store_commit_waits_total", "store_commit_parks_total"),
    ];

    let herd = Arc::new(Db::open(durable()));
    drive_workload(&herd);
    let snap = herd.obs_snapshot().expect("obs on");
    for (waits, parks) in SITES {
        assert!(
            snap.counters[parks] <= snap.counters[waits],
            "{parks} {} > {waits} {}",
            snap.counters[parks],
            snap.counters[waits]
        );
    }
    let gate_waits = snap.counters["store_gate_waits_total"];
    let waited = snap.histograms["store_begin_gate_wait_us"].count;
    assert!(waited <= gate_waits, "{waited} begins waited {gate_waits}×");
    assert_eq!(waited > 0, gate_waits > 0);

    let one_client = Db::open(durable());
    for i in 0u64..200 {
        let mut txn = one_client.begin();
        let _ = txn.get(i.to_be_bytes().as_slice());
        txn.put(i.to_be_bytes().as_slice(), b"v");
        txn.commit().expect("nothing to conflict with");
    }
    one_client.flush_wal().expect("healthy quorum");
    let no_wal = Arc::new(Db::open(DbOptions::new(wsi)));
    drive_workload(&no_wal);
    for (db, what) in [(&one_client, "one client"), (&*no_wal, "no WAL")] {
        let snap = db.obs_snapshot().expect("obs on");
        for (waits, parks) in SITES {
            assert_eq!(snap.counters[waits], 0, "{what}: {waits}");
            assert_eq!(snap.counters[parks], 0, "{what}: {parks}");
        }
        assert_eq!(
            snap.histograms["store_begin_gate_wait_us"].count, 0,
            "{what}: nobody waited at the gate"
        );
    }
}

/// Per-kind journal event totals relevant to lifecycle reconciliation.
#[derive(Debug, Default, PartialEq, Eq)]
struct JournalTally {
    begins: u64,
    commits: u64,
    read_only_commits: u64,
    aborts: u64,
    /// Aborts by the dangerous-structure rule (SSI only).
    pivot_aborts: u64,
    /// Aborts of transactions that never journaled a `Begin` — read-only
    /// victims of the dangerous-structure rule (`Begin` is journaled at the
    /// first buffered write).
    unbegun_aborts: u64,
    /// Aborts the pipeline persists a compensating WAL record for — i.e.
    /// everything except pre-WAL client rollbacks.
    wal_bound_aborts: u64,
}

fn tally(events: &[Event]) -> JournalTally {
    let mut t = JournalTally::default();
    let mut begun = std::collections::HashSet::new();
    for e in events {
        match e.data {
            EventData::Begin => {
                t.begins += 1;
                begun.insert(e.txn);
            }
            EventData::Commit { .. } => t.commits += 1,
            EventData::ReadOnlyCommit => t.read_only_commits += 1,
            EventData::Abort(cause) => {
                t.aborts += 1;
                if !begun.contains(&e.txn) {
                    t.unbegun_aborts += 1;
                }
                if matches!(cause, Cause::Pivot { .. }) {
                    t.pivot_aborts += 1;
                }
                if !matches!(cause, Cause::Client) {
                    t.wal_bound_aborts += 1;
                }
            }
            _ => {}
        }
    }
    t
}

/// The census of a ledger's log: its retained records plus the newest
/// checkpoint's census of the records truncated behind it.
fn wal_census(ledger: &wsi_wal::Ledger) -> WalCensus {
    let records: Result<Vec<_>, _> = ledger.recover().iter().map(decode_record).collect();
    let records = records.expect("ledger uncorrupted");
    LogSuffix::new(ledger.base(), records)
        .expect("log holds what its checkpoint needs")
        .census()
}

/// `store_checkpoints_total` counts the checkpoints the log received: with
/// no quorum loss, each one the tick or `gc` wrote is found as a
/// `StoreRecord::Checkpoint` in a WAL snapshot taken after every commit
/// (the newest is never truncated before the next is written), one per
/// distinct cut.
#[test]
fn checkpoints_total_counts_the_checkpoints_in_the_log() {
    let db = Db::open(
        DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig::default_replicated()),
    );
    let mut cuts = BTreeSet::new();
    let mut see = |db: &Db| {
        for payload in db.wal_snapshot().expect("durable").recover() {
            if let Ok(StoreRecord::Checkpoint(c)) = decode_record(&payload) {
                cuts.insert(c.cut);
            }
        }
    };
    for i in 0u64..1600 {
        let mut txn = db.begin();
        txn.put(((i * 7) % 300).to_be_bytes().as_slice(), &[b'v'; 32]);
        txn.commit().expect("one writer commits");
        see(&db);
        if i == 1000 {
            let _ = db.gc();
            see(&db);
        }
    }
    let counted = db.obs_snapshot().expect("obs on").counters["store_checkpoints_total"];
    assert!(counted >= 3, "{counted} checkpoints");
    assert_eq!(counted, cuts.len() as u64);
}

/// Crossed rw-dependencies, single-threaded: `a` reads k1 and writes k2,
/// `b` reads k2 and writes k1, so once `a` commits `b` is the pivot of a
/// dangerous structure — plus rollbacks and read-only transactions.
fn drive_crossed_pairs(db: &Db) {
    for i in 0u64..200 {
        let k1 = (i * 7) % KEYS;
        let k2 = (k1 + 13) % KEYS;
        let mut a = db.begin();
        let mut b = db.begin();
        let _ = a.get(k1.to_be_bytes().as_slice());
        a.put(k2.to_be_bytes().as_slice(), b"a");
        let _ = b.get(k2.to_be_bytes().as_slice());
        b.put(k1.to_be_bytes().as_slice(), b"b");
        let _ = a.commit();
        let _ = b.commit();
        match i % 5 {
            0 => {
                let mut t = db.begin();
                t.put(k1.to_be_bytes().as_slice(), b"discard");
                t.rollback();
            }
            1 => {
                let mut t = db.begin();
                let _ = t.get(k1.to_be_bytes().as_slice());
                let _ = t.commit();
            }
            _ => {}
        }
    }
}

/// The flight recorder is a third independent account of the run: its
/// abort events must agree with the oracle's abort counters AND with the
/// WAL's compensating abort records, at all three isolation levels. A
/// journal that dropped events (ring wrap) would make the counts
/// meaningless, so zero drop is asserted first.
#[test]
fn journal_events_reconcile_with_counters_and_wal() {
    let ssi = IsolationLevel::SerializableSnapshot;
    for (level, threaded) in [
        (IsolationLevel::Snapshot, true),
        (IsolationLevel::WriteSnapshot, true),
        (ssi, true),
        (ssi, false),
    ] {
        let db = Arc::new(Db::open(
            DbOptions::new(level).durable(LedgerConfig::default_replicated()),
        ));
        if threaded {
            drive_workload(&db);
        } else {
            drive_crossed_pairs(&db);
        }
        db.flush_wal().expect("healthy quorum");

        let journal = db.journal().expect("journal on by default");
        assert_eq!(journal.dropped(), 0, "{level:?}: ring large enough");
        let t = tally(&journal.snapshot());
        let oracle = db.stats().oracle;
        // `Begin` is journaled at the first buffered write, so the journal
        // counts writing transactions; every non-writing transaction in
        // these workloads ends on the read-only path — committed, or under
        // SSI possibly refused there.
        assert_eq!(
            t.begins,
            oracle.begins - oracle.read_only_commits - t.unbegun_aborts,
            "{level:?}: begin events cover exactly the writing transactions"
        );
        assert_eq!(
            t.begins,
            t.commits + t.aborts - t.unbegun_aborts,
            "{level:?}: every journaled begin ended exactly once"
        );
        assert_eq!(t.commits, oracle.commits, "{level:?}: commit events");
        assert_eq!(
            t.read_only_commits, oracle.read_only_commits,
            "{level:?}: read-only commit events"
        );
        assert_eq!(
            t.aborts,
            oracle.ww_aborts
                + oracle.rw_aborts
                + oracle.tmax_aborts
                + oracle.pivot_aborts
                + oracle.client_aborts,
            "{level:?}: journal abort events == oracle abort counters"
        );
        assert_eq!(
            t.pivot_aborts, oracle.pivot_aborts,
            "{level:?}: pivot-cause abort events"
        );
        assert!(
            t.unbegun_aborts <= t.pivot_aborts,
            "{level:?}: only the dangerous-structure rule refuses a read-only transaction"
        );
        if level != ssi {
            assert_eq!(t.pivot_aborts, 0, "{level:?}: no window, no pivots");
        }
        let wal = wal_census(&db.wal_snapshot().expect("durable")).aborts;
        assert_eq!(
            t.wal_bound_aborts, wal,
            "{level:?}: journal conflict aborts == WAL abort records"
        );
        if level == IsolationLevel::WriteSnapshot {
            // Under WSI every read of a concurrently-written key conflicts,
            // so the contended workload reliably aborts; under SI the rarer
            // WW collisions make a zero count possible on a quiet scheduler.
            assert!(t.aborts > 0, "contended WSI workload aborts");
        }
        if !threaded {
            assert!(
                t.pivot_aborts > t.begins / 20,
                "ssi: crossed rw pairs must abort dangerous structures"
            );
        }
    }
}
