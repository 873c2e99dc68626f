//! WAL recovery edge cases (ISSUE 7 satellite): torn tails, compensating-
//! abort ordering across the two-pass replay, and recovery idempotence.
//!
//! The contract under test is `Db::recover`, at the WSI and the SSI level
//! (one recovery path; the SSI window needs nothing from the log):
//!
//! * a final record that fails to decode is a **torn tail** — the crash hit
//!   mid-persist, the client was never acknowledged, the record is dropped;
//! * an undecodable record anywhere *before* the tail is genuine corruption
//!   and refuses recovery rather than silently losing acknowledged data;
//! * a compensating `Abort` record always sequences *after* the `Commit`
//!   record it overturns, so a single forward pass would apply the commit
//!   first — recovery must collect aborts in pass one and skip overturned
//!   commits in pass two;
//! * recovery is idempotent: recovering a recovered store's WAL yields the
//!   identical version store;
//! * recovery is *checkpoint + log suffix*, and reproduces the live store
//!   from every crash point of a checkpoint: before it is durable, between
//!   its flush and the truncation behind it, after the truncation, with
//!   the checkpoint torn, and with its flush short of a quorum — whether
//!   `gc` or the commit path's tick wrote it.

use bytes::Bytes;
use wsi_core::IsolationLevel;
use wsi_store::{
    decode_record, encode_record, Db, DbOptions, Error, GcStats, StoreRecord, VersionStamps,
};
use wsi_wal::{Ledger, LedgerConfig};

const LEVELS: [IsolationLevel; 2] = [
    IsolationLevel::WriteSnapshot,
    IsolationLevel::SerializableSnapshot,
];

fn durable_db(level: IsolationLevel) -> Db {
    Db::open(DbOptions::new(level).durable(LedgerConfig::local_sync()))
}

fn commit_kv(db: &Db, key: &[u8], value: &[u8]) {
    let mut t = db.begin();
    t.put(key, value);
    t.commit().unwrap();
}

/// Sorted copy of a version-stamp dump (shard iteration order is not part
/// of the contract; the stamp *set* is).
fn canon(mut stamps: VersionStamps) -> VersionStamps {
    stamps.sort();
    stamps
}

#[test]
fn torn_final_record_is_dropped_not_fatal() {
    for level in LEVELS {
        let db = durable_db(level);
        for i in 0..5u64 {
            commit_kv(&db, format!("k{i}").as_bytes(), i.to_string().as_bytes());
        }
        let mut wal = db.wal_snapshot().expect("durable");

        // Tear the tail: persist only a prefix of a valid commit record, as
        // a crash mid-write would.
        let full = encode_record(&StoreRecord::Commit {
            start_ts: wsi_core::Timestamp(1000),
            commit_ts: wsi_core::Timestamp(1001),
            writes: vec![(Bytes::from_static(b"torn"), Some(Bytes::from_static(b"x")))],
        });
        wal.append(full.slice(0..full.len() - 3), u64::MAX);
        wal.flush(u64::MAX).unwrap();

        let recovered = Db::recover(DbOptions::new(level), wal).expect("torn tail is ok");
        for i in 0..5u64 {
            let mut t = recovered.begin();
            assert_eq!(
                t.get(format!("k{i}").as_bytes()).unwrap().as_ref(),
                i.to_string().as_bytes(),
                "{level}: acknowledged commit lost"
            );
        }
        let mut t = recovered.begin();
        assert_eq!(t.get(b"torn"), None, "torn record must not replay");
        // The recovered store keeps working.
        commit_kv(&recovered, b"k0", b"new");
    }
}

#[test]
fn corruption_before_the_tail_refuses_recovery() {
    let db = durable_db(IsolationLevel::WriteSnapshot);
    commit_kv(&db, b"k", b"v");
    let mut wal = db.wal_snapshot().expect("durable");

    // A truncated record *followed by* a decodable one is not a torn tail:
    // something after it was acknowledged, so the log is corrupt.
    wal.append(Bytes::from_static(&[0x10, 0x99]), u64::MAX);
    wal.append(
        encode_record(&StoreRecord::Abort {
            start_ts: wsi_core::Timestamp(9999),
        }),
        u64::MAX,
    );
    wal.flush(u64::MAX).unwrap();

    for level in LEVELS {
        let err = Db::recover(DbOptions::new(level), wal.clone());
        assert!(
            matches!(err, Err(Error::Corrupt(_))),
            "{level}: mid-log corruption must refuse recovery, got {err:?}"
        );
    }
}

/// Hand-built log proving the two-pass structure is load-bearing: the
/// compensating abort sequences strictly after the commit record it
/// overturns, so a one-pass replay would have exposed the value before
/// seeing the abort.
#[test]
fn compensating_abort_overturns_an_earlier_commit_record() {
    let mut wal = Ledger::open(LedgerConfig::local_sync());
    let overturned_start = wsi_core::Timestamp(3);
    wal.append(
        encode_record(&StoreRecord::Commit {
            start_ts: wsi_core::Timestamp(1),
            commit_ts: wsi_core::Timestamp(2),
            writes: vec![(Bytes::from_static(b"x"), Some(Bytes::from_static(b"base")))],
        }),
        0,
    );
    wal.append(
        encode_record(&StoreRecord::Commit {
            start_ts: overturned_start,
            commit_ts: wsi_core::Timestamp(4),
            writes: vec![(Bytes::from_static(b"x"), Some(Bytes::from_static(b"lost")))],
        }),
        1,
    );
    wal.append(
        encode_record(&StoreRecord::Abort {
            start_ts: overturned_start,
        }),
        2,
    );
    wal.flush(3).unwrap();

    for level in LEVELS {
        let db = Db::recover(DbOptions::new(level), wal.clone()).unwrap();
        let mut t = db.begin();
        assert_eq!(
            t.get(b"x").unwrap().as_ref(),
            b"base",
            "{level}: overturned commit must not replay"
        );
        drop(t);
        // The overturned commit's timestamps stay burned: fresh transactions
        // must start above them.
        let t = db.begin();
        assert!(t.start_ts() > wsi_core::Timestamp(4));
    }
}

/// End-to-end version: a real quorum loss writes the records in exactly
/// that commit-then-abort order.
#[test]
fn quorum_loss_logs_commit_before_compensating_abort() {
    let db = Db::open(
        DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig::default_replicated()),
    );
    commit_kv(&db, b"x", b"base");

    db.fail_wal_bookie(0);
    db.fail_wal_bookie(1);
    let mut t = db.begin();
    t.put(b"x", b"lost");
    let start_ts = t.start_ts();
    assert!(matches!(t.commit(), Err(Error::Wal(_))));

    db.recover_wal_bookie(0);
    db.recover_wal_bookie(1);
    db.flush_wal().expect("quorum restored");

    let wal = db.wal_snapshot().unwrap();
    let records: Vec<StoreRecord> = wal
        .recover()
        .iter()
        .map(|p| decode_record(p).unwrap())
        .collect();
    let commit_pos = records
        .iter()
        .position(|r| matches!(r, StoreRecord::Commit { start_ts: s, .. } if *s == start_ts));
    let abort_pos = records
        .iter()
        .position(|r| matches!(r, StoreRecord::Abort { start_ts: s } if *s == start_ts));
    let abort_pos = abort_pos.expect("compensating abort must be durable");
    if let Some(commit_pos) = commit_pos {
        assert!(
            commit_pos < abort_pos,
            "compensation sequences after the commit it overturns"
        );
    }

    let recovered = Db::recover(DbOptions::new(IsolationLevel::WriteSnapshot), wal).unwrap();
    let mut t = recovered.begin();
    assert_eq!(t.get(b"x").unwrap().as_ref(), b"base");
}

#[test]
fn recovery_is_idempotent() {
    // Build a log with commits, an overturned commit, and a client abort.
    let db = Db::open(
        DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig::default_replicated()),
    );
    for i in 0..8u64 {
        commit_kv(
            &db,
            format!("k{}", i % 3).as_bytes(),
            i.to_string().as_bytes(),
        );
    }
    let mut t = db.begin();
    t.put(b"k0", b"rolled-back");
    t.rollback();
    db.fail_wal_bookie(0);
    db.fail_wal_bookie(1);
    let mut t = db.begin();
    t.put(b"k1", b"lost");
    assert!(t.commit().is_err());
    db.recover_wal_bookie(0);
    db.recover_wal_bookie(1);
    db.flush_wal().unwrap();
    let wal = db.wal_snapshot().unwrap();

    // recover(recover(wal)) == recover(wal): same versions, same stamps,
    // and the re-recovered WAL replays to the same store again. Recovery
    // must stay durable so the recovered store exposes its (unchanged) WAL.
    let opts = || {
        DbOptions::new(IsolationLevel::WriteSnapshot).durable(LedgerConfig::default_replicated())
    };
    let once = Db::recover(opts(), wal.clone()).unwrap();
    let again = Db::recover(opts(), wal).unwrap();
    assert_eq!(canon(once.version_stamps()), canon(again.version_stamps()));

    let twice = Db::recover(opts(), once.wal_snapshot().unwrap()).unwrap();
    assert_eq!(canon(once.version_stamps()), canon(twice.version_stamps()));

    // And the doubly-recovered store agrees on every visible value.
    for i in 0..3u64 {
        let key = format!("k{i}");
        let mut a = once.begin();
        let mut b = twice.begin();
        assert_eq!(a.get(key.as_bytes()), b.get(key.as_bytes()), "{key}");
    }
}

/// WAL replay publishes through the same path as live commits, so every
/// replayed key is on the GC worklist: the first sweep of a recovered
/// multi-version log drops exactly the superseded versions and leaves one
/// version per key — the live database's own.
#[test]
fn gc_after_recovery_drops_exactly_the_superseded_versions() {
    let db = durable_db(IsolationLevel::WriteSnapshot);
    // 20 keys; key i is written i % 4 + 1 times, one of them deleted last.
    for round in 0..4u64 {
        for i in (0..20u64).filter(|i| i % 4 >= round) {
            commit_kv(
                &db,
                format!("k{i:02}").as_bytes(),
                round.to_string().as_bytes(),
            );
        }
    }
    let mut t = db.begin();
    t.delete(b"k03");
    t.commit().unwrap();
    let versions: usize = 20 + 15 + 10 + 5 + 1;
    assert_eq!(db.stats().versions, versions);

    let options = DbOptions::new(IsolationLevel::WriteSnapshot);
    let wal = db.wal_snapshot().expect("durable");
    let recovered = Db::recover(options, wal).expect("clean log");
    assert_eq!(
        recovered.stats().versions,
        versions,
        "every version replayed"
    );

    // Replay stamps every version it publishes and logs no aborted one.
    let expect = GcStats {
        versions_dropped: (versions - 20) as u64,
        ..GcStats::default()
    };
    assert_eq!(recovered.gc(), expect);
    assert_eq!(
        recovered.stats().versions,
        20,
        "one version per key survives"
    );
    assert_eq!(recovered.stats().keys, 20);
    assert_eq!(db.gc(), expect, "the live database's sweep drops the same");
    assert_eq!(
        canon(recovered.version_stamps()),
        canon(db.version_stamps())
    );
    assert_eq!(recovered.gc(), GcStats::default(), "nothing left to do");
}

/// Commits a round of writes to twelve keys: every key rewritten, every
/// fifth deleted, so chains hold versions, tombstones and superseded ones.
fn churn(db: &Db, round: u64) {
    for i in 0..12u64 {
        let mut t = db.begin();
        let key = format!("k{i:02}");
        if (i + round).is_multiple_of(5) {
            t.delete(key.as_bytes());
        } else {
            t.put(key.as_bytes(), format!("{round}:{i}").as_bytes());
        }
        t.commit().unwrap();
    }
}

/// Every key's value at a fresh snapshot, and every key's newest version's
/// `(writer_start, committed_at)` stamps, tombstoned keys included.
type Contents = (Vec<(Bytes, Bytes)>, Vec<(Bytes, (u64, Option<u64>))>);

/// What recovery must reproduce: [`Contents`].
fn contents(db: &Db) -> Contents {
    let values = db.snapshot().scan(b"", None, usize::MAX);
    let newest = db
        .version_stamps()
        .into_iter()
        .map(|(key, chain)| {
            let newest = chain.into_iter().max_by_key(|&(_, cts)| cts).unwrap();
            (key, newest)
        })
        .collect();
    (values, newest)
}

/// A ledger holding exactly `payloads`, the first at sequence number
/// `base`, all durable: the log a crash leaves behind.
fn log_of(base: u64, payloads: &[Bytes]) -> Ledger {
    let mut ledger = Ledger::open_at(LedgerConfig::local_sync(), base);
    for payload in payloads {
        ledger.append(payload.clone(), 0);
    }
    ledger.flush(0).unwrap();
    ledger
}

fn checkpoints_in(payloads: &[Bytes]) -> usize {
    payloads
        .iter()
        .filter(|p| matches!(decode_record(p), Ok(StoreRecord::Checkpoint(_))))
        .count()
}

/// A durable store through two checkpointing sweeps, with the log
/// captured around the second: before its `gc`, and after it. Returns the
/// store (live state) and the two logs.
fn around_a_checkpoint(level: IsolationLevel) -> (Db, Ledger, Ledger) {
    let db = durable_db(level);
    for round in 0..3 {
        churn(&db, round);
    }
    db.gc(); // the first checkpoint: always due
    for round in 3..8 {
        churn(&db, round);
    }
    let before = db.wal_snapshot().unwrap();
    db.gc(); // five rounds of log outweigh one checkpoint: due again
    let after = db.wal_snapshot().unwrap();
    assert!(after.base() > before.base(), "the second sweep truncated");
    (db, before, after)
}

/// Crash points around a checkpoint. Recovery reproduces the live store
/// from each: before the checkpoint is durable, after it is durable but
/// before the truncation, after the truncation, and with the checkpoint
/// torn as the final record (recovery falls back to the previous one).
#[test]
fn recovery_reproduces_the_store_from_every_crash_point_of_a_checkpoint() {
    for level in LEVELS {
        let (db, before, after) = around_a_checkpoint(level);
        let live = contents(&db);
        let (old, new) = (before.recover(), after.recover());
        let end = before.base() + old.len() as u64;
        let appended: Vec<Bytes> = new
            .iter()
            .skip((end - after.base()) as usize)
            .cloned()
            .collect();
        assert_eq!(
            checkpoints_in(&appended),
            1,
            "the sweep's round appended it"
        );

        let untruncated = [old.clone(), appended.clone()].concat();
        let mut torn = old.clone();
        let checkpoint = appended.last().unwrap();
        torn.push(checkpoint.slice(..checkpoint.len() / 2));
        let crash_points = [
            (
                "before the checkpoint is durable",
                log_of(before.base(), &old),
            ),
            ("before the truncation", log_of(before.base(), &untruncated)),
            ("after the truncation", after),
            ("with the checkpoint torn", log_of(before.base(), &torn)),
        ];
        for (point, log) in crash_points {
            let recovered = Db::recover(DbOptions::new(level), log)
                .unwrap_or_else(|e| panic!("{level}: {point}: {e}"));
            assert_eq!(contents(&recovered), live, "{level}: {point}");
            // The recovered store keeps working past every timestamp the
            // log burned.
            churn(&recovered, 100);
        }
    }
}

/// A checkpointed log keeps the torn-tail rule: a record damaged before
/// the tail refuses recovery — the checkpoint itself included — while a
/// torn final record is dropped.
#[test]
fn a_checkpointed_log_refuses_mid_log_damage_and_drops_a_torn_tail() {
    let (db, _, after) = around_a_checkpoint(IsolationLevel::WriteSnapshot);
    let live = contents(&db);
    let base = after.base();
    let payloads = after.recover();
    let at = payloads
        .iter()
        .position(|p| matches!(decode_record(p), Ok(StoreRecord::Checkpoint(_))))
        .expect("the log starts at a checkpoint's cut");
    let abort = encode_record(&StoreRecord::Abort {
        start_ts: wsi_core::Timestamp(1 << 40),
    });
    let flip = |payload: &Bytes| {
        let mut bytes = payload.to_vec();
        bytes[payload.len() / 3] ^= 0x10;
        Bytes::from(bytes)
    };

    let mut damaged_checkpoint = payloads.clone();
    damaged_checkpoint[at] = flip(&payloads[at]);
    damaged_checkpoint.push(abort.clone());
    let mut damaged_record = payloads.clone();
    damaged_record.push(flip(&abort));
    damaged_record.push(abort.clone());
    for (what, log) in [
        ("checkpoint", damaged_checkpoint),
        ("record", damaged_record),
    ] {
        let err = Db::recover(
            DbOptions::new(IsolationLevel::WriteSnapshot),
            log_of(base, &log),
        );
        assert!(
            matches!(err, Err(Error::Corrupt(_))),
            "a damaged {what} mid-log must refuse recovery, got {err:?}"
        );
    }

    let mut torn = payloads.clone();
    torn.push(abort.slice(..abort.len() - 3));
    let recovered = Db::recover(
        DbOptions::new(IsolationLevel::WriteSnapshot),
        log_of(base, &torn),
    )
    .expect("a torn tail is dropped");
    assert_eq!(contents(&recovered), live);
}

/// A checkpoint whose flush misses its quorum is abandoned: the log is not
/// truncated, and recovery loses nothing — from the log as the failure
/// left it, and from the log once the bookie is back and the retained
/// checkpoint flushed (durable now, but never truncated behind).
#[test]
fn a_checkpoint_that_misses_its_quorum_leaves_the_log_whole() {
    let level = IsolationLevel::WriteSnapshot;
    let db = durable_db(level);
    for round in 0..3 {
        churn(&db, round);
    }
    db.gc();
    for round in 3..8 {
        churn(&db, round);
    }
    let base = db.wal_snapshot().unwrap().base();
    db.fail_wal_bookie(0);
    db.gc(); // its checkpoint reaches no bookie
    db.recover_wal_bookie(0);
    let live = contents(&db);
    for flushed in [false, true] {
        if flushed {
            db.flush_wal().expect("the bookie is back");
        }
        let wal = db.wal_snapshot().unwrap();
        assert_eq!(wal.base(), base, "flushed {flushed}: the log stays whole");
        let recovered = Db::recover(DbOptions::new(level), wal).unwrap();
        assert_eq!(contents(&recovered), live, "flushed {flushed}");
    }
}

/// The `n`-th write commit of a run that never calls `gc`: twelve keys in
/// turn, every fifth commit a delete.
fn nth_write(db: &Db, n: u64) {
    let mut t = db.begin();
    let key = format!("k{:02}", n % 12);
    if n.is_multiple_of(5) {
        t.delete(key.as_bytes());
    } else {
        t.put(key.as_bytes(), n.to_string().as_bytes());
    }
    t.commit().unwrap();
}

/// Write commits until the first checkpoint truncates the log. With no
/// `gc`, only the tick writes one, and the first is always due: so this is
/// the tick's interval.
fn tick_interval(db: &Db) -> u64 {
    (0..)
        .find(|&n| {
            nth_write(db, n);
            db.wal_snapshot().unwrap().base() > 0
        })
        .unwrap()
        + 1
}

fn checkpoints_total(db: &Db) -> u64 {
    db.obs_snapshot().unwrap().counters["store_checkpoints_total"]
}

/// Crash points of a checkpoint the tick writes, with no `gc` anywhere.
/// Two stores run the same commits. In `whole` the second tick checkpoint
/// goes through and truncates. In `held` its flush misses the quorum —
/// the bookie fails between the ticking commit's round and the
/// checkpoint's — so the log stops before it is durable, and the next
/// flush makes it durable, untruncated. Recovery reproduces the live store
/// from each, and from the checkpoint torn as the final record.
#[test]
fn recovery_reproduces_the_store_from_every_crash_point_of_a_tick_checkpoint() {
    for level in LEVELS {
        let whole = durable_db(level);
        let held = durable_db(level);
        let interval = tick_interval(&whole);
        for n in 0..2 * interval - 1 {
            if n >= interval {
                nth_write(&whole, n);
            }
            nth_write(&held, n);
        }
        let base = whole.wal_snapshot().unwrap().base();
        nth_write(&whole, 2 * interval - 1);
        let after = whole.wal_snapshot().unwrap();
        assert!(after.base() > base, "{level}: the tick truncated");
        assert_eq!(checkpoints_total(&whole), 2);

        held.fail_wal_bookie_after(0, 1);
        nth_write(&held, 2 * interval - 1);
        held.recover_wal_bookie(0);
        let not_durable = held.wal_snapshot().unwrap();
        held.flush_wal().unwrap();
        let untruncated = held.wal_snapshot().unwrap();
        assert_eq!(not_durable.base(), base, "{level}: the same first cut");
        assert_eq!(untruncated.base(), base);
        assert_eq!(checkpoints_total(&held), 1, "{level}: one abandoned");

        let live = contents(&whole);
        assert_eq!(contents(&held), live, "{level}: the same commits");
        let old = not_durable.recover();
        let appended = &untruncated.recover()[old.len()..];
        assert_eq!(checkpoints_in(appended), 1, "{level}: the next flush");
        let checkpoint = appended
            .iter()
            .find(|p| matches!(decode_record(p), Ok(StoreRecord::Checkpoint(_))))
            .unwrap();
        let mut torn = old.clone();
        torn.push(checkpoint.slice(..checkpoint.len() / 2));
        let crash_points = [
            ("before the checkpoint is durable", not_durable),
            ("before the truncation", untruncated),
            ("after the truncation", after),
            ("with the checkpoint torn", log_of(base, &torn)),
        ];
        for (point, log) in crash_points {
            let recovered = Db::recover(DbOptions::new(level), log)
                .unwrap_or_else(|e| panic!("{level}: {point}: {e}"));
            assert_eq!(contents(&recovered), live, "{level}: {point}");
            churn(&recovered, 100);
        }
    }
}

/// A checkpoint the tick writes whose flush misses its quorum is abandoned:
/// the ticking commit still returns `Ok`, the log stays whole and recovers,
/// nothing panics, and the next due tick checkpoints and truncates.
#[test]
fn a_tick_checkpoint_that_misses_its_quorum_is_retried_by_the_next_tick() {
    let level = IsolationLevel::WriteSnapshot;
    let db = durable_db(level);
    let interval = tick_interval(&db);
    assert_eq!(checkpoints_total(&db), 1);
    for n in interval..2 * interval - 1 {
        nth_write(&db, n);
    }
    let base = db.wal_snapshot().unwrap().base();
    // The ticking commit's round reaches the bookie; its checkpoint's
    // does not. `nth_write` unwraps the commit.
    db.fail_wal_bookie_after(0, 1);
    nth_write(&db, 2 * interval - 1);
    db.recover_wal_bookie(0);
    assert_eq!(checkpoints_total(&db), 1, "abandoned, not counted");
    let wal = db.wal_snapshot().unwrap();
    assert_eq!(wal.base(), base, "the log stays whole");
    let recovered = Db::recover(DbOptions::new(level), wal).unwrap();
    assert_eq!(contents(&recovered), contents(&db));

    for n in 2 * interval..3 * interval {
        nth_write(&db, n);
    }
    assert_eq!(checkpoints_total(&db), 2, "the next due tick retried");
    let wal = db.wal_snapshot().unwrap();
    assert!(wal.base() > base, "and truncated");
    let recovered = Db::recover(DbOptions::new(level), wal).unwrap();
    assert_eq!(contents(&recovered), contents(&db));
}

/// A value far beyond the largest slot class continues through thousands
/// of slots; allocating, reading, checkpointing, freeing and replaying it
/// must take stack independent of its length. Runs on a thread with a
/// small stack, so a walk that recursed per slot would overflow it.
#[test]
fn a_multi_megabyte_value_round_trips_on_a_small_stack() {
    std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(|| {
            let big: Vec<u8> = (0..4u32 << 20).map(|i| (i % 251) as u8).collect();
            let level = IsolationLevel::WriteSnapshot;
            let db = durable_db(level);
            commit_kv(&db, b"big", &big);
            assert_eq!(db.snapshot().get(b"big").unwrap().as_ref(), &big[..]);
            let mut buf = Vec::new();
            assert!(db.begin().get_into(b"big", &mut buf));
            assert_eq!(buf, big);

            // Superseded, checkpointed and freed; then replayed.
            commit_kv(&db, b"big", &big[1..]);
            db.gc();
            assert_eq!(db.snapshot().get(b"big").unwrap().as_ref(), &big[1..]);
            let recovered = Db::recover(DbOptions::new(level), db.wal_snapshot().unwrap()).unwrap();
            assert_eq!(
                recovered.snapshot().get(b"big").unwrap().as_ref(),
                &big[1..]
            );
            recovered.gc();
        })
        .unwrap()
        .join()
        .unwrap();
}
