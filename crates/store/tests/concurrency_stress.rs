//! Multi-threaded stress tests for the decoupled commit path.
//!
//! The commit pipeline's claims are concurrency claims — the manager lock
//! covers only the conflict check, WAL flushes batch across committers, and
//! visibility waits for durability whenever there is a WAL. Single-threaded
//! tests cannot falsify any of that; these run real thread herds and check
//! the observable invariants: no lost updates, repeatable snapshots, a WAL
//! batching factor that proves the flush left the critical section, and
//! bookkeeping that still adds up afterwards.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use wsi_core::IsolationLevel;
use wsi_history::record::{merge, tag, tagged, Attempt};
use wsi_history::TxnId;
use wsi_store::{decode_record, Db, DbOptions, Error, StoreRecord};
use wsi_wal::{LedgerConfig, WalError};

/// Versions insert-time pruning has unlinked so far.
fn inline_pruned(db: &Db) -> u64 {
    let snap = db.obs_snapshot().expect("obs on by default");
    snap.counters["store_arena_inline_pruned_total"]
}

fn counter_value(db: &Db, key: &[u8]) -> u64 {
    db.snapshot()
        .get(key)
        .map(|v| String::from_utf8_lossy(&v).parse().unwrap())
        .unwrap_or(0)
}

fn increment(db: &Db, key: &[u8]) {
    db.run(1_000, |t| {
        let n: u64 = t
            .get(key)
            .map(|v| String::from_utf8_lossy(&v).parse().unwrap())
            .unwrap_or(0);
        t.put(key, (n + 1).to_string().as_bytes());
        Ok(())
    })
    .expect("increment exhausted its retry budget");
}

/// N threads × M read-modify-write increments of one counter must observe
/// every predecessor: the final value equals the number of successful
/// commits. Lost updates here would mean a conflict-check or publication
/// race in the decoupled commit path.
fn no_lost_updates(isolation: IsolationLevel, wal: Option<LedgerConfig>) {
    const THREADS: usize = 8;
    const INCREMENTS: u64 = 50;
    let mut options = DbOptions::new(isolation);
    options.wal = wal;
    let db = Db::open(options);

    thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..INCREMENTS {
                    increment(&db, b"counter");
                }
            });
        }
    });

    assert_eq!(counter_value(&db, b"counter"), THREADS as u64 * INCREMENTS);

    // One more conflict, whose victim is known by timestamp.
    let mut winner = db.begin();
    let mut victim = db.begin();
    for t in [&mut winner, &mut victim] {
        t.get(b"contested");
        t.put(b"contested", b"mine");
    }
    let victim_ts = victim.start_ts();
    winner.commit().expect("first committer wins");
    assert!(matches!(victim.commit(), Err(Error::Aborted(_))));
    assert!(db.journal().is_some());
    assert!(db.explain_abort(victim_ts).is_some());

    let stats = db.stats();
    assert_eq!(stats.active_transactions, 0, "every txn deregistered");
    // Every begin resolved exactly one way; the ledger of fates must balance.
    assert_eq!(
        stats.oracle.begins,
        stats.oracle.commits + stats.oracle.total_aborts() + stats.oracle.read_only_commits,
        "begins must equal commits + aborts + read-only commits: {stats:?}"
    );
}

#[test]
fn wsi_counter_has_no_lost_updates() {
    no_lost_updates(IsolationLevel::WriteSnapshot, None);
}

#[test]
fn si_counter_has_no_lost_updates() {
    no_lost_updates(IsolationLevel::Snapshot, None);
}

#[test]
fn wsi_counter_has_no_lost_updates_sync_wal() {
    no_lost_updates(
        IsolationLevel::WriteSnapshot,
        Some(LedgerConfig::default_replicated()),
    );
}

#[test]
fn ssi_counter_has_no_lost_updates() {
    no_lost_updates(IsolationLevel::SerializableSnapshot, None);
}

#[test]
fn ssi_counter_has_no_lost_updates_sync_wal() {
    no_lost_updates(
        IsolationLevel::SerializableSnapshot,
        Some(LedgerConfig::default_replicated()),
    );
}

/// Writes `n` to every key as transaction 0, the herd's seed.
fn seed(db: &Db, keys: &[&str], n: i64) -> Attempt {
    let mut t = db.begin();
    for key in keys {
        t.put(key.as_bytes(), tag(n, TxnId(0)).as_bytes());
    }
    Attempt {
        txn: TxnId(0),
        start_ts: t.start_ts().raw(),
        commit_ts: Some(t.commit().unwrap().raw()),
        reads: Vec::new(),
        writes: keys.iter().map(|key| key.to_string()).collect(),
    }
}

/// Holds `history` to the isolation check at `isolation`.
fn check_history(attempts: &[Attempt], isolation: IsolationLevel) {
    let (history, observed) = merge(attempts);
    if let Err(violation) = wsi_history::check(&history, &observed, isolation) {
        panic!("{isolation}: {violation}");
    }
}

/// Runs one attempt: begin, read both balances, withdraw one unit from
/// `mine` if the constraint still holds afterwards, commit.
fn withdraw(db: &Db, txn: TxnId, mine: &'static str) -> Attempt {
    let mut t = db.begin();
    let mut reads = Vec::new();
    let mut balance = |key: &str| {
        let (balance, writer) = tagged(&t.get(key.as_bytes()).expect("seeded"));
        reads.push((key.to_string(), writer));
        balance
    };
    let (x, y) = (balance("x"), balance("y"));
    // Hand the CPU over between the reads and the commit, so concurrent
    // attempts really overlap.
    thread::yield_now();
    let mut writes = Vec::new();
    if x + y > 0 {
        let current = if mine == "x" { x } else { y };
        t.put(mine.as_bytes(), tag(current - 1, txn).as_bytes());
        writes.push(mine.to_string());
    }
    let start_ts = t.start_ts().raw();
    Attempt {
        txn,
        start_ts,
        commit_ts: t.commit().ok().map(|ts| ts.raw()),
        reads,
        writes,
    }
}

/// The paper's §3.1 constraint on real threads: `x + y ≥ 0` from `x = y =
/// 10`, each transaction reading both and decrementing one only if the
/// constraint still holds afterwards. Write skew — two transactions each
/// spending the last unit of slack — is the one way to break it, and a
/// serializable level must never let it happen. Each thread records its
/// attempts, and the merged history must pass the isolation check at the
/// herd's level: snapshot reads at every level, first-committer-wins under
/// SI and SSI (two threads withdraw from each account, so concurrent writes
/// of one key race), an acyclic DSG under WSI and SSI.
fn write_skew_herd(isolation: IsolationLevel) {
    const THREADS: u32 = 4;
    const ATTEMPTS: u32 = 60;
    let db = Db::open(DbOptions::new(isolation));
    let mut attempts = vec![seed(&db, &["x", "y"], 10)];

    let start = Barrier::new(THREADS as usize);
    thread::scope(|s| {
        let herd: Vec<_> = (0..THREADS)
            .map(|thread| {
                let db = &db;
                let start = &start;
                s.spawn(move || {
                    let mine = if thread % 2 == 0 { "x" } else { "y" };
                    start.wait();
                    // Aborted attempts are simply dropped: the herd runs the
                    // account dry either way.
                    let txn = |i| TxnId(1 + thread * ATTEMPTS + i);
                    (0..ATTEMPTS)
                        .map(|i| withdraw(db, txn(i), mine))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for thread in herd {
            attempts.extend(thread.join().unwrap());
        }
    });

    check_history(&attempts, isolation);
    let snapshot = db.snapshot();
    let balance = |key: &[u8]| tagged(&snapshot.get(key).unwrap()).0;
    let (x, y) = (balance(b"x"), balance(b"y"));
    assert!(
        !isolation.is_serializable() || x + y >= 0,
        "{isolation}: write skew broke x + y ≥ 0: {x} + {y}"
    );
    let stats = db.stats();
    assert!(
        stats.oracle.commits > 1,
        "{isolation}: some withdrawals landed"
    );
}

#[test]
fn si_write_skew_herd_reads_its_snapshots() {
    write_skew_herd(IsolationLevel::Snapshot);
}

#[test]
fn wsi_write_skew_herd_keeps_the_constraint() {
    write_skew_herd(IsolationLevel::WriteSnapshot);
}

#[test]
fn ssi_write_skew_herd_keeps_the_constraint() {
    write_skew_herd(IsolationLevel::SerializableSnapshot);
}

/// Keys the reclamation herd's writers churn.
const HOT: [&str; 3] = ["h0", "h1", "h2"];

/// Write commits between two ticks of `Db` (its `TICK_EVERY`): a reader
/// holding a snapshot for three times as many holds it across three ticks.
const TICK: u64 = 256;

/// One read-modify-write: read `key`, write its number plus one, commit.
fn bump(db: &Db, txn: TxnId, key: &str) -> Attempt {
    let mut t = db.begin();
    let (n, writer) = tagged(&t.get(key.as_bytes()).expect("seeded"));
    t.put(key.as_bytes(), tag(n + 1, txn).as_bytes());
    let start_ts = t.start_ts().raw();
    Attempt {
        txn,
        start_ts,
        commit_ts: t.commit().ok().map(|ts| ts.raw()),
        reads: vec![(key.to_string(), writer)],
        writes: vec![key.to_string()],
    }
}

/// Reclamation on real threads. Writers churn three hot keys, so aborts
/// and insert-time pruning unlink versions;
/// readers hold snapshots across three watermark ticks each and walk the
/// hot chains again and again meanwhile. Every unlinked node is freed by
/// a write commit's share once a tick's watermark passes its retire tag
/// (or, with `gc_thread`, at the first sweep of a thread running `Db::gc`
/// in a loop), and recycled by the next insert — so a node freed while
/// a registered walk could still stand on it hands that walk another
/// version's value (or trips the debug build's generation check). Each
/// reader pass is a read-only transaction at its snapshot's timestamp; a
/// pass that repeats its snapshot's first pass adds nothing to the check
/// and is not recorded. A walk led into a cycle by a recycled node never
/// returns, so the herd runs under a watchdog.
fn reclamation_herd(isolation: IsolationLevel, gc_thread: bool) {
    // A release build walks fast enough that one run rarely meets a bad
    // free; several give the race the time a debug build has.
    let runs = if cfg!(debug_assertions) { 1 } else { 8 };
    within(Duration::from_secs(120), move || {
        for _ in 0..runs {
            run_reclamation_herd(isolation, gc_thread);
        }
    });
}

/// Decrements a count of running threads when dropped — on return and on
/// unwind alike.
struct Finished<'a>(&'a AtomicU64);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

fn run_reclamation_herd(isolation: IsolationLevel, gc_thread: bool) {
    const WRITERS: u32 = 3;
    const READERS: u32 = 2;
    const ATTEMPTS: u32 = 1000;
    let db = Db::open(DbOptions::new(isolation));
    let mut attempts = vec![seed(&db, &HOT, 0)];
    let committed = AtomicU64::new(0);
    let writing = AtomicU64::new(WRITERS as u64);
    thread::scope(|s| {
        let (db, committed, writing) = (&db, &committed, &writing);
        if gc_thread {
            s.spawn(move || {
                while writing.load(Ordering::Acquire) > 0 {
                    db.gc();
                }
            });
        }
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                s.spawn(move || {
                    // Counts this writer out even if it panics, so readers
                    // and the sweeping thread stop and the failure reports
                    // instead of running into the watchdog.
                    let _done = Finished(writing);
                    let attempts: Vec<Attempt> = (0..ATTEMPTS)
                        .map(|i| {
                            let key = HOT[((w + i) as usize) % HOT.len()];
                            let attempt = bump(db, TxnId(1 + w * ATTEMPTS + i), key);
                            if attempt.commit_ts.is_some() {
                                committed.fetch_add(1, Ordering::Relaxed);
                            }
                            attempt
                        })
                        .collect();
                    attempts
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                s.spawn(move || {
                    let mut next = (1_000_000 * (r + 1)..).map(TxnId);
                    let mut attempts = Vec::new();
                    while writing.load(Ordering::Acquire) > 0 {
                        let snap = db.snapshot();
                        let start_ts = snap.start_ts().raw();
                        let until = committed.load(Ordering::Relaxed) + 3 * TICK;
                        let mut first = None;
                        while committed.load(Ordering::Relaxed) < until
                            && writing.load(Ordering::Acquire) > 0
                        {
                            let reads: Vec<(String, TxnId)> = HOT
                                .iter()
                                .map(|key| {
                                    let value = snap.get(key.as_bytes()).expect("seeded");
                                    (key.to_string(), tagged(&value).1)
                                })
                                .collect();
                            if first.as_ref() != Some(&reads) {
                                first.get_or_insert_with(|| reads.clone());
                                attempts.push(Attempt {
                                    txn: next.next().unwrap(),
                                    start_ts,
                                    commit_ts: Some(start_ts),
                                    reads,
                                    writes: Vec::new(),
                                });
                            }
                        }
                    }
                    attempts
                })
            })
            .collect();
        for thread in writers.into_iter().chain(readers) {
            attempts.extend(thread.join().unwrap());
        }
    });
    check_history(&attempts, isolation);
    db.gc();
    let rec = db.reclamation();
    // Between ticks the hot chains outgrow the pruning bound, unless a
    // thread looping `Db::gc` sweeps them first.
    assert!(
        gc_thread || inline_pruned(&db) > 0,
        "{isolation}: hot chains were pruned"
    );
    assert!(rec.retired > 0, "{isolation}: superseded versions retired");
    assert_eq!(
        (rec.limbo, rec.freed),
        (0, rec.retired),
        "{isolation}: nothing registered, everything freed"
    );
}

#[test]
fn si_reclamation_herd_reads_its_snapshots() {
    reclamation_herd(IsolationLevel::Snapshot, false);
}

#[test]
fn wsi_reclamation_herd_reads_its_snapshots() {
    reclamation_herd(IsolationLevel::WriteSnapshot, false);
}

#[test]
fn ssi_reclamation_herd_reads_its_snapshots() {
    reclamation_herd(IsolationLevel::SerializableSnapshot, false);
}

/// The same herd with a thread sweeping `Db::gc` in a loop beside the
/// long-held snapshots. A reader or sweep that finds a version unstamped
/// and then looks its writer up in the registry can race the owner's stamp
/// and deregistration, which drops the entry; it must re-load the stamp
/// when the lookup does not answer `Committed` (`arena::Version::fate`).
/// Without that re-read a snapshot can read an older version than the
/// newest committed before it, or none at all.
#[test]
fn reclamation_herd_with_a_sweeping_gc_reads_its_snapshots() {
    for isolation in [
        IsolationLevel::Snapshot,
        IsolationLevel::WriteSnapshot,
        IsolationLevel::SerializableSnapshot,
    ] {
        reclamation_herd(isolation, true);
    }
}

/// Durable writers beside two threads looping `Db::gc`, each sweep of
/// which may write a checkpoint and truncate the log behind it while
/// commits land on both sides of the checkpoint's snapshot and the other
/// sweep resolves versions under its scan. The writers spread over
/// sixteen keys, so a key often has no commit after a checkpoint to cover
/// for what that checkpoint missed. After every sweep of the first thread
/// the captured log must recover every commit acknowledged before the
/// capture — each key's counter at least the highest acknowledged — and
/// the final log the live store exactly. A cut that dropped a commit at
/// or above the snapshot, or a scan that missed one, loses it here.
#[test]
fn durable_writers_beside_checkpointing_sweeps_recover_every_commit() {
    const WRITERS: usize = 2;
    const KEYS: usize = 16;
    let commits: u64 = if cfg!(debug_assertions) { 500 } else { 20_000 };
    let options = || {
        DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig::default_replicated())
    };
    let key = |k: usize| format!("d{k:02}");
    within(Duration::from_secs(120), move || {
        let db = Db::open(options());
        let acked: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
        let writing = AtomicU64::new(WRITERS as u64);
        let mut sweeps = 0u64;
        thread::scope(|s| {
            let (db, acked, writing) = (&db, &acked, &writing);
            for w in 0..WRITERS {
                s.spawn(move || {
                    let _done = Finished(writing);
                    for i in 0..commits {
                        let k = (w * 7 + i as usize * 5) % KEYS;
                        increment(db, key(k).as_bytes());
                        // Our increment is durable; the counter now holds
                        // at least its value.
                        let value = counter_value(db, key(k).as_bytes());
                        acked[k].fetch_max(value, Ordering::Relaxed);
                    }
                });
            }
            s.spawn(move || {
                while writing.load(Ordering::Acquire) > 0 {
                    db.gc();
                }
            });
            while writing.load(Ordering::Acquire) > 0 {
                db.gc();
                let floors: Vec<u64> = acked.iter().map(|a| a.load(Ordering::Relaxed)).collect();
                let recovered = Db::recover(options(), db.wal_snapshot().unwrap()).unwrap();
                for (k, floor) in floors.into_iter().enumerate() {
                    let got = counter_value(&recovered, key(k).as_bytes());
                    assert!(
                        got >= floor,
                        "{}: recovered {got} < acknowledged {floor}",
                        key(k)
                    );
                }
                sweeps += 1;
            }
        });
        db.flush_wal().unwrap();
        let recovered = Db::recover(options(), db.wal_snapshot().unwrap()).unwrap();
        let mut total = 0;
        for k in 0..KEYS {
            let live = counter_value(&db, key(k).as_bytes());
            assert_eq!(
                counter_value(&recovered, key(k).as_bytes()),
                live,
                "{}",
                key(k)
            );
            total += live;
        }
        assert_eq!(total, WRITERS as u64 * commits, "no lost update");
        assert!(sweeps > 1, "the sweeps ran beside the writers");
    });
}

/// The group-commit proof. Each flush of this ledger sleeps 2 ms — a
/// simulated quorum round-trip. If sync commits flushed inside the manager's
/// critical section (as the seed did), the 64 commits below would serialize
/// into 64 single-record flushes and ≥128 ms of lock-held sleeping. With the
/// pipeline, committers that arrive while the leader sleeps pile into the
/// next batch, so the run finishes in a fraction of the serial bound and the
/// WAL's batching factor rises well above one record per flush.
#[test]
fn sync_commits_share_flushes_under_contention() {
    const THREADS: usize = 8;
    const COMMITS_PER_THREAD: usize = 8;
    const FLUSH_DELAY: Duration = Duration::from_millis(2);

    let config = LedgerConfig {
        replicas: 3,
        ack_quorum: 2,
        flush_delay_us: FLUSH_DELAY.as_micros() as u64,
    };
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot).durable(config));

    let started = Instant::now();
    thread::scope(|s| {
        for t in 0..THREADS {
            let db = db.clone();
            s.spawn(move || {
                for i in 0..COMMITS_PER_THREAD {
                    // Disjoint keys: no conflicts, pure pipeline pressure.
                    let mut txn = db.begin();
                    txn.put(format!("t{t}/k{i}").as_bytes(), b"v");
                    txn.commit().unwrap();
                }
            });
        }
    });
    let elapsed = started.elapsed();

    let commits = (THREADS * COMMITS_PER_THREAD) as u64;
    let stats = db.stats().wal;
    assert!(stats.records >= commits, "every commit reached the WAL");
    assert!(
        stats.flushes < commits / 2,
        "flushes must batch across committers: {} flushes for {} commits",
        stats.flushes,
        commits
    );
    assert!(
        stats.batch_factor() > 1.5,
        "batching factor {:.2} shows no group commit",
        stats.batch_factor()
    );
    // Generous wall-clock bound: even at half the ideal batching the run
    // stays far below the 128 ms a lock-held flush would force.
    let serial_bound = FLUSH_DELAY * commits as u32;
    assert!(
        elapsed < serial_bound,
        "run took {elapsed:?}, at least as slow as {} serialized flushes",
        commits
    );
    // Sync semantics: everything acknowledged is durable — nothing pending.
    let ledger = db.wal_snapshot().unwrap();
    assert_eq!(ledger.pending_records(), 0);
    assert!(ledger.durable_upto().is_some());
    assert_eq!(db.stats().oracle.commits, commits);
}

/// Runs `herd` on its own thread and fails the test if it has not returned
/// within `limit`: a lost wake-up in the pipeline is a committer asleep for
/// good, and must show as a failure, not as a suite that never ends. (The
/// stuck threads are abandoned to the end of the test process.)
fn within<T: Send + 'static>(limit: Duration, herd: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = mpsc::channel();
    let runner = thread::spawn(move || done.send(herd()));
    match finished.recv_timeout(limit) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("herd still out after {limit:?}: a waiter was not woken")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("herd died without a result"))
        }
    }
}

/// What one herd thread saw: the keys whose commit was acknowledged, and
/// the keys whose commit a quorum loss overturned.
type Fates = (Vec<String>, Vec<String>);

/// Eight committers over disjoint keys on `db`'s sync WAL, released
/// together. With `quorum_loss`, thread 0 fails two of the three bookies a
/// quarter of the way through and brings them back as soon as a commit of
/// its own has been overturned — so the overturn path is certain to run,
/// under whatever the other seven are doing. Both calls go through
/// `with_ledger_mut`, which waits out flush rounds like any committer.
fn pipeline_herd(db: &Db, commits_per_thread: usize, quorum_loss: bool) -> Fates {
    const THREADS: usize = 8;
    let start = Barrier::new(THREADS);
    thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let start = &start;
                s.spawn(move || {
                    let saboteur = quorum_loss && t == 0;
                    let mut fates = Fates::default();
                    start.wait();
                    for i in 0..commits_per_thread {
                        if saboteur && i == commits_per_thread / 4 {
                            db.fail_wal_bookie(0);
                            db.fail_wal_bookie(1);
                        }
                        let key = format!("t{t}/k{i}");
                        let mut txn = db.begin();
                        txn.put(key.as_bytes(), key.as_bytes());
                        match txn.commit() {
                            Ok(_) => fates.0.push(key),
                            Err(Error::Wal(WalError::QuorumLost { .. })) => {
                                fates.1.push(key);
                                if saboteur {
                                    db.recover_wal_bookie(0);
                                    db.recover_wal_bookie(1);
                                }
                            }
                            Err(e) => panic!("disjoint keys cannot conflict: {e:?}"),
                        }
                    }
                    fates
                })
            })
            .collect();
        let mut all = Fates::default();
        for worker in workers {
            let (acked, lost) = worker.join().expect("herd thread");
            all.0.extend(acked);
            all.1.extend(lost);
        }
        all
    })
}

/// `(waits, parks)` of the pipeline's two wait sites together.
fn pipeline_waits(db: &Db) -> (u64, u64) {
    let snap = db.obs_snapshot().expect("obs on by default");
    let sum = |names: [&str; 2]| names.iter().map(|n| snap.counters[*n]).sum();
    (
        sum(["store_gate_waits_total", "store_commit_waits_total"]),
        sum(["store_gate_parks_total", "store_commit_parks_total"]),
    )
}

/// The lost-wake-up herd. Every pipeline wait is a bounded spin on the round
/// generation and then, perhaps, a park that only the round's leader ends —
/// and the leader wakes nobody unless it counts a sleeper. Eight committers
/// on two cores keep leaders, spinners and sleepers interleaving; a quorum
/// loss mid-run sends rounds down the overturn path. Nothing here depends on
/// timing: whatever the interleaving, every thread must come back (the
/// watchdog), every begin must have exactly one fate, and exactly the
/// acknowledged commits must survive recovery.
///
/// The second phase slows each flush to 2 ms, which no spin outlasts: there
/// the waiters must be *seen* to park, and to have been woken.
#[test]
fn pipeline_herd_loses_no_wake_up() {
    const COMMITS_PER_THREAD: usize = 150;
    let options =
        DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig::default_replicated());

    let (db, acked, lost) = within(Duration::from_secs(60), {
        let options = options.clone();
        move || {
            let db = Db::open(options);
            let (acked, lost) = pipeline_herd(&db, COMMITS_PER_THREAD, true);
            (db, acked, lost)
        }
    });
    assert!(!lost.is_empty(), "the quorum loss overturned something");
    let stats = db.stats();
    assert_eq!(stats.active_transactions, 0, "every txn deregistered");
    assert_eq!(stats.oracle.commits, acked.len() as u64);
    assert_eq!(
        stats.oracle.begins,
        stats.oracle.commits
            + stats.oracle.read_only_commits
            + stats.oracle.total_aborts()
            + lost.len() as u64,
        "begins == commits + read-only commits + aborts + overturned: {stats:?}"
    );
    let (waits, parks) = pipeline_waits(&db);
    assert!(parks <= waits, "{parks} parks in {waits} waits");

    // Heals the log's tail: the compensating aborts of the last overturned
    // round are durable once flushed.
    db.flush_wal().expect("quorum is back");
    let recovered = Db::recover(options, db.wal_snapshot().expect("durable")).unwrap();
    let (live, replayed) = (db.snapshot(), recovered.snapshot());
    for key in &acked {
        assert_eq!(live.get(key.as_bytes()).as_deref(), Some(key.as_bytes()));
        assert_eq!(
            replayed.get(key.as_bytes()).as_deref(),
            Some(key.as_bytes()),
            "acknowledged commit {key} lost in recovery"
        );
    }
    for key in &lost {
        assert_eq!(live.get(key.as_bytes()), None, "{key} was overturned");
        assert_eq!(replayed.get(key.as_bytes()), None, "{key} was overturned");
    }

    let slow = LedgerConfig::default_replicated().with_flush_delay_us(2_000);
    let (acked, (waits, parks)) = within(Duration::from_secs(60), move || {
        let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot).durable(slow));
        let (acked, _) = pipeline_herd(&db, 6, false);
        (acked, pipeline_waits(&db))
    });
    assert_eq!(acked.len(), 8 * 6);
    assert!(parks > 0, "a 2 ms flush outlasts any spin: {waits} waits");
    assert!(parks <= waits, "{parks} parks in {waits} waits");
}

/// Owner-side stamping loses no stamp. With a WAL the leader only sets the
/// owners' fates in the registry; each owner writes its commit timestamp onto its versions
/// after it picks up its outcome. Four writers pile versions from different
/// owners onto the same few chains; once they are back every version must
/// carry a stamp, and the same one a replay of the log derives.
#[test]
fn owner_stamping_leaves_no_version_unstamped() {
    const THREADS: usize = 4;
    const COMMITS_PER_THREAD: usize = 20;
    const KEYS: usize = 8;
    let options =
        DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig::default_replicated());
    let db = Db::open(options.clone());
    thread::scope(|s| {
        for t in 0..THREADS {
            let db = &db;
            s.spawn(move || {
                for i in 0..COMMITS_PER_THREAD {
                    // Blind writes: WSI never refuses them.
                    let mut txn = db.begin();
                    for k in [i % KEYS, (i + t + 1) % KEYS] {
                        txn.put(format!("k{k}").as_bytes(), format!("{t}:{i}").as_bytes());
                    }
                    txn.commit().unwrap();
                }
            });
        }
    });

    // Chain order is insert order, which differs between the live run
    // (inserted before the decision) and the replay (in commit order).
    let stamps = |db: &Db| {
        let mut stamps = db.version_stamps();
        for (_, versions) in &mut stamps {
            versions.sort_unstable();
        }
        stamps
    };
    let live = stamps(&db);
    assert_eq!(live.len(), KEYS);
    for (key, versions) in &live {
        assert!(
            versions
                .iter()
                .all(|(_, committed_at)| committed_at.is_some()),
            "{key:?} holds an unstamped version: {versions:?}"
        );
    }
    let recovered = Db::recover(options, db.wal_snapshot().expect("durable")).unwrap();
    assert_eq!(live, stamps(&recovered));
}

/// Snapshot stability under a sync-commit storm. A sync commit is *decided*
/// under the manager lock but *published* after its flush; if a snapshot
/// could start between those two points with a timestamp above the commit's,
/// the commit would pop into view mid-snapshot — a non-repeatable read. The
/// begin-side gate must make every snapshot see each sync commit either
/// entirely or not at all, even with a slowed flush widening the window.
#[test]
fn snapshots_stay_stable_during_sync_commit_storm() {
    const WRITERS: usize = 4;
    const READS: usize = 300;

    let config = LedgerConfig {
        replicas: 3,
        ack_quorum: 2,
        flush_delay_us: 500,
    };
    const READERS: usize = 2;

    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot).durable(config));
    let readers_done = AtomicU64::new(0);

    thread::scope(|s| {
        for w in 0..WRITERS {
            let db = db.clone();
            let readers_done = &readers_done;
            s.spawn(move || {
                let mut i = 0u64;
                while readers_done.load(Ordering::Relaxed) < READERS as u64 {
                    // Blind writes: no read set, so WSI never aborts them —
                    // maximum publication churn on a single hot key.
                    let mut txn = db.begin();
                    txn.put(b"hot", format!("{w}:{i}").as_bytes());
                    txn.commit().unwrap();
                    i += 1;
                }
            });
        }
        for _ in 0..READERS {
            let db = db.clone();
            let readers_done = &readers_done;
            s.spawn(move || {
                for _ in 0..READS {
                    let snap = db.snapshot();
                    let first = snap.get(b"hot");
                    thread::yield_now();
                    let second = snap.get(b"hot");
                    assert_eq!(
                        first,
                        second,
                        "snapshot {:?} saw a commit flip mid-read",
                        snap.start_ts()
                    );
                }
                readers_done.fetch_add(1, Ordering::Relaxed);
            });
        }
    });

    assert_eq!(db.stats().active_transactions, 0);
}

/// Quorum loss after the decision but before publication must roll the
/// commit back invisibly: the client gets an error, readers never glimpse
/// the doomed value, and — once the quorum heals — the compensating abort
/// record keeps the commit overturned through crash recovery too. One
/// pipeline serves every level, so the overturn is booked the same way at
/// each: a third fate, neither a commit nor a counted abort.
#[test]
fn quorum_loss_rolls_back_before_visibility() {
    let config = LedgerConfig {
        replicas: 3,
        ack_quorum: 2,
        flush_delay_us: 0,
    };
    let ssi = IsolationLevel::SerializableSnapshot;
    for level in [IsolationLevel::WriteSnapshot, ssi] {
        let db = Db::open(DbOptions::new(level).durable(config));

        let mut t1 = db.begin();
        t1.put(b"k", b"v1");
        t1.commit().unwrap();

        // Concurrent with the doomed commit below: `bystander` read what it
        // will write, and `reader` (committed) read what `bystander` will.
        let mut bystander = db.begin();
        let _ = bystander.get(b"k");
        let mut reader = db.begin();
        let _ = reader.get(b"side");
        reader.put(b"other", b"r");
        reader.commit().unwrap();

        db.fail_wal_bookie(0);
        db.fail_wal_bookie(1);

        let mut t2 = db.begin();
        t2.put(b"k", b"v2");
        let err = t2.commit().unwrap_err();
        assert!(
            matches!(
                err,
                Error::Wal(WalError::QuorumLost {
                    acks: 1,
                    required: 2
                })
            ),
            "{level}: expected quorum loss, got {err:?}"
        );

        // Rolled back before visibility: readers still see v1, and the
        // oracle's books show only the acknowledged commits and no abort.
        assert_eq!(db.snapshot().get(b"k").unwrap().as_ref(), b"v1");
        let oracle = db.stats().oracle;
        assert_eq!((oracle.commits, oracle.total_aborts()), (2, 0), "{level}");

        // Heal the quorum; the next commit retries the retained buffer — the
        // doomed record and its compensating abort become durable together.
        db.recover_wal_bookie(0);
        db.recover_wal_bookie(1);
        let mut t3 = db.begin();
        t3.put(b"k2", b"v3");
        t3.commit().unwrap();

        if level == ssi {
            // The overturned commit left no window entry: `bystander` has an
            // in-edge from `reader`, and an out-edge to the doomed commit
            // would make it a pivot. (Under WSI the doomed `lastCommit` row
            // stays and refuses it — conservative, and documented.)
            bystander.put(b"side", b"b");
            bystander.commit().expect("no edge to an overturned commit");
        }

        assert_eq!(db.snapshot().get(b"k").unwrap().as_ref(), b"v1");
        assert_eq!(db.snapshot().get(b"k2").unwrap().as_ref(), b"v3");

        // Crash and recover: the overturned commit's record survives on the
        // bookies, but the compensating abort keeps it invisible.
        let recovered = Db::recover(
            DbOptions::new(level).durable(config),
            db.wal_snapshot().unwrap(),
        )
        .unwrap();
        assert_eq!(recovered.snapshot().get(b"k").unwrap().as_ref(), b"v1");
        assert_eq!(recovered.snapshot().get(b"k2").unwrap().as_ref(), b"v3");
    }
}

/// Garbage collection races the write path: collecting versions while
/// writers churn and readers pin snapshots must never unhook a version a
/// live snapshot can still see, and totals must stay exact.
#[test]
fn gc_runs_safely_under_concurrent_traffic() {
    const THREADS: usize = 4;
    const INCREMENTS: u64 = 60;

    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    thread::scope(|s| {
        for t in 0..THREADS {
            let db = db.clone();
            s.spawn(move || {
                let key = format!("c{}", t % 2); // two contended counters
                for _ in 0..INCREMENTS {
                    increment(&db, key.as_bytes());
                    // Each thread holds a snapshot across a GC cycle and
                    // re-reads through it: GC must not collect from under it.
                    let snap = db.snapshot();
                    let before = snap.get(key.as_bytes());
                    db.gc();
                    assert_eq!(snap.get(key.as_bytes()), before);
                }
            });
        }
    });
    db.gc();

    let per_counter = (THREADS as u64 / 2) * INCREMENTS;
    assert_eq!(counter_value(&db, b"c0"), per_counter);
    assert_eq!(counter_value(&db, b"c1"), per_counter);
    // With no transaction active the final GC can reduce every chain to one
    // visible version per key.
    assert_eq!(db.stats().versions, db.stats().keys);
    assert_eq!(db.stats().active_transactions, 0);
}

/// A durable database under concurrent writers must recover to exactly the
/// acknowledged state: snapshot the surviving log, replay, and compare every
/// key. The one multi-threaded recovery test, so it also holds the log-order
/// invariant `Db::recover` replays under: commit records reach the log in
/// commit-timestamp order, because the timestamp is issued under the
/// pipeline lock that orders the queue.
#[test]
fn sync_wal_recovers_concurrent_commits() {
    const THREADS: usize = 6;
    const KEYS_PER_THREAD: usize = 40;

    let options =
        DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig::default_replicated());
    let db = Db::open(options.clone());

    thread::scope(|s| {
        for t in 0..THREADS {
            let db = db.clone();
            s.spawn(move || {
                for i in 0..KEYS_PER_THREAD {
                    let mut txn = db.begin();
                    txn.put(
                        format!("t{t}/k{i}").as_bytes(),
                        format!("{t}-{i}").as_bytes(),
                    );
                    txn.commit().unwrap();
                }
            });
        }
    });

    db.flush_wal().unwrap();
    let wal = db.wal_snapshot().unwrap();
    let commit_order: Vec<u64> = wal
        .recover()
        .iter()
        .filter_map(|payload| match decode_record(payload).unwrap() {
            StoreRecord::Commit { commit_ts, .. } => Some(commit_ts.raw()),
            _ => None,
        })
        .collect();
    assert_eq!(commit_order.len(), THREADS * KEYS_PER_THREAD);
    assert!(
        commit_order.windows(2).all(|w| w[0] < w[1]),
        "commit records out of commit-timestamp order: {commit_order:?}"
    );
    let recovered = Db::recover(options, wal).unwrap();

    let live = db.snapshot();
    let replayed = recovered.snapshot();
    let all = live.scan(b"", None, usize::MAX);
    assert_eq!(all.len(), THREADS * KEYS_PER_THREAD);
    for (k, v) in &all {
        assert_eq!(replayed.get(k).as_ref(), Some(v), "key {k:?} diverged");
    }
    // And the recovered database keeps working, including conflict checks.
    let mut a = recovered.begin();
    let mut b = recovered.begin();
    let _ = a.get(b"t0/k0");
    let _ = b.get(b"t0/k0");
    a.put(b"t0/k0", b"a");
    b.put(b"t0/k0", b"b");
    a.commit().unwrap();
    b.commit().unwrap_err();
}

/// A read-write transaction on a key that another client keeps rewriting,
/// faster than the transaction runs, never commits: every attempt's read of
/// the key meets a newer commit (a read-write conflict under WSI), and
/// `Db::run`'s backoff cannot break the streak, because while the victim
/// sleeps the writer runs alone. This was the mechanism behind `txn_e2e`'s
/// rare `failed = 1` on `zipf_complex_2t` (EXPERIMENTS.md, "No lost write:
/// a transaction that ran out of retries"). After `ESCALATE_AFTER` failed
/// attempts the reader takes the serial token, the writer's commits wait
/// for it, and the reader's next attempt commits.
#[test]
fn a_reader_of_a_rewritten_key_commits_within_its_retry_budget() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let done = AtomicBool::new(false);
    thread::scope(|s| {
        s.spawn(|| {
            // Blind writes never conflict under WSI: each commits at once.
            let mut n = 0u64;
            while !done.load(Ordering::Relaxed) {
                n += 1;
                db.run(0, |t| {
                    t.put(b"hot", &n.to_le_bytes());
                    Ok(())
                })
                .expect("a blind write commits");
            }
        });
        let outcome = db.run(64, |t| {
            let _ = t.get(b"hot");
            thread::sleep(Duration::from_micros(200));
            t.put(b"mine", b"v");
            Ok(())
        });
        done.store(true, Ordering::Relaxed);
        outcome.expect("the reader commits within its retry budget");
    });
}

/// The self-checking value of write `tag`: the tag, then bytes that follow
/// from it, at a length that follows from it too — either side of slot
/// size-class boundaries, and past the largest class.
fn tagged_value(tag: u64) -> Vec<u8> {
    const LENGTHS: [usize; 9] = [8, 9, 100, 104, 105, 256, 257, 600, 2_000];
    let len = LENGTHS[(tag % LENGTHS.len() as u64) as usize];
    let mut value = tag.to_le_bytes().to_vec();
    value.extend((8..len).map(|i| (tag as u8) ^ (i as u8).wrapping_mul(31)));
    value
}

/// Two readers hammer 8 hot keys while a writer rewrites all of them in
/// every transaction, now and then with a tombstone. A reader copies each
/// value out of the store's words with plain loads, racing the writer's
/// publishes, the pruning of the hot chains and the sweeps and frees that
/// the commits' shares run; a copy that is torn, or
/// that reads a slot recycled under it, is a value its own tag does not
/// explain, or the tag of another key.
#[test]
fn readers_never_copy_a_torn_value() {
    const KEYS: u64 = 8;
    let rounds: u64 = if cfg!(debug_assertions) {
        3_000
    } else {
        30_000
    };
    let key = |k: u64| format!("hot{k}").into_bytes();
    let check = |k: u64, value: &[u8]| {
        let tag = u64::from_le_bytes(value[..8].try_into().unwrap());
        assert_eq!(tag % KEYS, k, "key {k} holds a value written to another");
        assert!(value == tagged_value(tag), "key {k}: torn value, tag {tag}");
    };
    let reads = within(Duration::from_secs(120), move || {
        let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
        let done = AtomicBool::new(false);
        thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let (mut buf, mut reads) = (Vec::new(), 0u64);
                        while !done.load(Ordering::Relaxed) {
                            let snap = db.snapshot();
                            for k in 0..KEYS {
                                if snap.get_into(&key(k), &mut buf) {
                                    check(k, &buf);
                                    reads += 1;
                                }
                            }
                            drop(snap);
                            let mut txn = db.begin();
                            for k in 0..KEYS {
                                if let Some(value) = txn.get(&key(k)) {
                                    check(k, &value);
                                    reads += 1;
                                }
                            }
                            txn.commit().unwrap();
                        }
                        reads
                    })
                })
                .collect();
            for round in 0..rounds {
                let mut txn = db.begin();
                for k in 0..KEYS {
                    let tag = round * KEYS + k;
                    match tag % 13 {
                        12 => txn.delete(&key(k)),
                        _ => txn.put(&key(k), &tagged_value(tag)),
                    }
                }
                txn.commit().expect("a blind writer never conflicts");
            }
            done.store(true, Ordering::Relaxed);
            let reads: Vec<u64> = readers.into_iter().map(|r| r.join().unwrap()).collect();
            let rec = db.reclamation();
            assert!(inline_pruned(&db) > 0, "the hot chains were pruned");
            assert!(
                rec.freed > 0,
                "superseded versions were freed under the readers"
            );
            reads
        })
    });
    assert!(reads.iter().all(|&n| n > 0), "every reader read: {reads:?}");
}
