//! Integration tests of the embedded store: real threads, durability,
//! recovery, GC, and a dead client that strands nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use writesnap::core::{AbortReason, IsolationLevel, Timestamp};
use writesnap::store::{Db, DbOptions, Error};
use writesnap::wal::LedgerConfig;

fn k(i: u64) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

#[test]
fn concurrent_disjoint_writers_all_commit() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let threads = 8;
    let per_thread = 200;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let mut txn = db.begin();
                    txn.put(&k(t * 1_000 + i), b"v");
                    txn.commit().expect("disjoint rows never conflict");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = db.stats();
    assert_eq!(stats.oracle.commits, threads * per_thread);
    assert_eq!(stats.oracle.total_aborts(), 0);
    assert_eq!(stats.keys, (threads * per_thread) as usize);
}

#[test]
fn contended_counter_is_exact_under_wsi_with_retries() {
    // A read-modify-write counter hammered by 4 threads: with retries, the
    // final value equals the number of successful increments — WSI's
    // serializability means no update is ever lost.
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let mut seed = db.begin();
    seed.put(b"counter", b"0");
    seed.commit().unwrap();

    let successes = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let db = db.clone();
            let successes = Arc::clone(&successes);
            std::thread::spawn(move || {
                for _ in 0..100 {
                    loop {
                        let mut txn = db.begin();
                        let val: u64 = String::from_utf8(txn.get(b"counter").unwrap().to_vec())
                            .unwrap()
                            .parse()
                            .unwrap();
                        txn.put(b"counter", (val + 1).to_string().as_bytes());
                        match txn.commit() {
                            Ok(_) => {
                                successes.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(Error::Aborted(_)) => continue, // retry
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut check = db.begin();
    let final_val: u64 = String::from_utf8(check.get(b"counter").unwrap().to_vec())
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(final_val, 400);
    assert_eq!(successes.load(Ordering::Relaxed), 400);
}

#[test]
fn si_lost_update_is_prevented_by_ww_detection() {
    // History 3's shape on the real store: both read, both write the same
    // key; the second committer must abort under SI too.
    let db = Db::open(DbOptions::new(IsolationLevel::Snapshot));
    let mut seed = db.begin();
    seed.put(b"x", b"0");
    seed.commit().unwrap();
    let mut t1 = db.begin();
    let mut t2 = db.begin();
    let _ = t1.get(b"x");
    let _ = t2.get(b"x");
    t1.put(b"x", b"1");
    t2.put(b"x", b"2");
    t1.commit().unwrap();
    let err = t2.commit().unwrap_err();
    assert!(matches!(
        err.abort_reason(),
        Some(AbortReason::WriteWriteConflict { .. })
    ));
}

#[test]
fn wsi_admits_blind_write_overlap_that_si_rejects() {
    // History 4: blind writes to the same key are serializable; WSI admits
    // them, SI does not.
    for (level, expect_ok) in [
        (IsolationLevel::WriteSnapshot, true),
        (IsolationLevel::Snapshot, false),
    ] {
        let db = Db::open(DbOptions::new(level));
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        let _ = t1.get(b"x"); // t1 reads x (absent) then writes it
        t1.put(b"x", b"from-t1");
        t2.put(b"x", b"from-t2"); // t2 writes blindly
        t1.commit().unwrap();
        assert_eq!(t2.commit().is_ok(), expect_ok, "under {level}");
        if expect_ok {
            // Commit order decides the final version: t2 committed last.
            let mut r = db.begin();
            assert_eq!(r.get(b"x").unwrap().as_ref(), b"from-t2");
        }
    }
}

#[test]
fn read_only_transactions_never_abort_under_either_level() {
    // Under SSI a read-only transaction can abort, but only by making a
    // committed transaction with an out-conflict a pivot; this writer reads
    // nothing, so it has none, and the overwritten reads commit freely.
    for level in [
        IsolationLevel::Snapshot,
        IsolationLevel::WriteSnapshot,
        IsolationLevel::SerializableSnapshot,
    ] {
        let db = Db::open(DbOptions::new(level));
        let mut seed = db.begin();
        seed.put(b"a", b"1");
        seed.commit().unwrap();
        let barrier = Arc::new(Barrier::new(2));
        let writer = {
            let db = db.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..200u32 {
                    let mut t = db.begin();
                    t.put(b"a", &i.to_le_bytes());
                    t.commit().unwrap();
                }
            })
        };
        barrier.wait();
        for _ in 0..200 {
            let mut t = db.begin();
            let _ = t.get(b"a");
            let _ = t.get(b"b");
            t.commit()
                .expect("read-only transactions must never abort (§4.1)");
        }
        writer.join().unwrap();
    }
}

#[test]
fn snapshot_reads_are_repeatable_despite_writers() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let mut seed = db.begin();
    seed.put(b"k", b"original");
    seed.commit().unwrap();
    let mut reader = db.begin();
    let before = reader.get(b"k");
    for i in 0..10u32 {
        let mut w = db.begin();
        w.put(b"k", format!("update{i}").as_bytes());
        w.commit().unwrap();
    }
    let after = reader.get(b"k");
    assert_eq!(before, after, "no fuzzy reads under snapshot semantics");
    assert_eq!(before.unwrap().as_ref(), b"original");
}

#[test]
fn durable_db_recovers_committed_state_only() {
    let options = DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig {
        replicas: 3,
        ack_quorum: 2,
        flush_delay_us: 0,
    });
    let db = Db::open(options.clone());
    let mut committed = db.begin();
    committed.put(b"committed", b"yes");
    committed.commit().unwrap();

    let mut aborted = db.begin();
    let _ = aborted.get(b"committed");
    aborted.put(b"doomed", b"no");
    let mut racer = db.begin();
    racer.put(b"committed", b"still yes");
    racer.commit().unwrap();
    assert!(aborted.commit().is_err(), "rw conflict");

    let mut in_flight = db.begin();
    in_flight.put(b"limbo", b"never committed");
    // "crash": drop the db, keep the replicated log.
    let wal = db.wal_snapshot().expect("durable db has a ledger");
    drop(in_flight);
    drop(db);

    let recovered = Db::recover(options, wal).expect("clean recovery");
    let mut r = recovered.begin();
    assert_eq!(r.get(b"committed").unwrap().as_ref(), b"still yes");
    assert_eq!(r.get(b"doomed"), None, "aborted writes must not resurrect");
    assert_eq!(
        r.get(b"limbo"),
        None,
        "in-flight writes die with the client"
    );

    // The recovered oracle still detects conflicts against recovered state.
    let mut t1 = recovered.begin();
    let mut t2 = recovered.begin();
    let _ = t1.get(b"committed");
    t2.put(b"committed", b"newer");
    t2.commit().unwrap();
    t1.put(b"other", b"v");
    assert!(t1.commit().is_err());
}

#[test]
fn recovery_survives_one_bookie_failure() {
    let options = DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig {
        replicas: 3,
        ack_quorum: 2,
        flush_delay_us: 0,
    });
    let db = Db::open(options.clone());
    for i in 0..50 {
        let mut t = db.begin();
        t.put(&k(i), b"v");
        t.commit().unwrap();
    }
    let mut wal = db.wal_snapshot().unwrap();
    wal.fail_bookie(1); // within the f = 1 budget
    let recovered = Db::recover(options, wal).unwrap();
    let mut r = recovered.begin();
    for i in 0..50 {
        assert!(r.get(&k(i)).is_some(), "row {i} lost");
    }
}

#[test]
fn gc_reclaims_versions_and_preserves_reads() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    for round in 0..20u32 {
        let mut t = db.begin();
        for i in 0..50 {
            t.put(&k(i), format!("round{round}").as_bytes());
        }
        t.commit().unwrap();
    }
    let before = db.stats().versions;
    assert_eq!(before, 20 * 50);
    let stats = db.gc();
    assert_eq!(stats.versions_dropped, 19 * 50);
    assert_eq!(db.stats().versions, 50);
    let mut r = db.begin();
    assert_eq!(r.get(&k(0)).unwrap().as_ref(), b"round19");
}

#[test]
fn gc_respects_active_snapshots() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let mut t = db.begin();
    t.put(b"k", b"v1");
    t.commit().unwrap();
    let mut old_reader = db.begin(); // pins the watermark
    let mut t2 = db.begin();
    t2.put(b"k", b"v2");
    t2.commit().unwrap();
    db.gc();
    assert_eq!(
        old_reader.get(b"k").unwrap().as_ref(),
        b"v1",
        "the version an active snapshot reads must survive GC"
    );
}

#[test]
fn dropped_writer_strands_nothing() {
    // §2.1's failure mode, absent by construction: a client that dies with
    // buffered writes leaves no lock behind, so readers and writers of the
    // same key proceed without any cleanup.
    let db = Db::open(DbOptions::new(IsolationLevel::Snapshot));
    let mut t0 = db.begin();
    t0.put(b"k", b"v0");
    t0.commit().unwrap();

    let mut doomed = db.begin();
    doomed.put(b"k", b"v");
    drop(doomed); // crash

    let mut r = db.begin();
    assert_eq!(r.get(b"k").as_deref(), Some(&b"v0"[..]));
    let mut w = db.begin();
    w.put(b"k", b"w");
    w.commit().expect("no locks in the lock-free design");
    let mut r2 = db.begin();
    assert_eq!(r2.get(b"k").as_deref(), Some(&b"w"[..]));
}

#[test]
fn timestamps_are_strictly_monotonic_across_threads() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let seen = Arc::new(parking_lot::Mutex::new(Vec::<Timestamp>::new()));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let db = db.clone();
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                for _ in 0..500 {
                    let t = db.begin();
                    seen.lock().push(t.start_ts());
                    t.rollback();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut all = seen.lock().clone();
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "start timestamps must be unique");
}

#[test]
fn ssi_crosschecks_with_wsi_on_write_skew() {
    // The same write-skew scenario at all three levels of the one engine:
    // SI admits the anomaly, WSI and SSI refuse it.
    for level in [
        IsolationLevel::Snapshot,
        IsolationLevel::WriteSnapshot,
        IsolationLevel::SerializableSnapshot,
    ] {
        let db = Db::open(DbOptions::new(level));
        let mut seed = db.begin();
        seed.put(b"x", b"1");
        seed.put(b"y", b"1");
        seed.commit().unwrap();
        let mut a = db.begin();
        let mut b = db.begin();
        let _ = (a.get(b"x"), a.get(b"y"), b.get(b"x"), b.get(b"y"));
        a.put(b"x", b"0");
        b.put(b"y", b"0");
        a.commit()
            .expect("the first committer has no committed partner");
        let second = b.commit();
        assert_eq!(
            second.is_ok(),
            !level.is_serializable(),
            "{level}: only SI admits write skew"
        );
        let y = db.snapshot().get(b"y").expect("seeded");
        let expect: &[u8] = if second.is_ok() { b"0" } else { b"1" };
        assert_eq!(y.as_ref(), expect, "{level}: an aborted write vanishes");
    }
}

#[test]
fn history6_is_admitted_under_ssi_and_refused_under_wsi() {
    // r1[x] w2[x] c2 w1[y] c1: serializable (t1 then t2). WSI refuses t1
    // because its read of x was overwritten; SSI sees one out-edge and no
    // in-edge on t1 — not a dangerous structure. SI never looks at reads.
    for (level, admitted) in [
        (IsolationLevel::Snapshot, true),
        (IsolationLevel::WriteSnapshot, false),
        (IsolationLevel::SerializableSnapshot, true),
    ] {
        let db = Db::open(DbOptions::new(level));
        let mut seed = db.begin();
        seed.put(b"x", b"0");
        seed.commit().unwrap();
        let mut t1 = db.begin();
        let _ = t1.get(b"x");
        let mut t2 = db.begin();
        t2.put(b"x", b"new");
        t2.commit().unwrap();
        t1.put(b"y", b"derived");
        assert_eq!(t1.commit().is_ok(), admitted, "{level}");
    }
}
