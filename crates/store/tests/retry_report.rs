//! `Db::run` surfaces its retry history instead of discarding it.
//!
//! The retry loop used to swallow the `AbortReason` of every retried
//! attempt: a caller whose transaction committed on attempt three had no
//! way to learn it had been a conflict victim twice. [`Db::last_txn_report`]
//! now reports the attempt count and the last intermediate reason, and the
//! flight recorder journals a `Retry` event against each failed attempt.

use std::sync::atomic::{AtomicBool, Ordering};

use wsi_core::{AbortReason, IsolationLevel};
use wsi_store::{Db, DbOptions, Error, EventData};

#[test]
fn clean_commit_reports_one_attempt_and_no_abort() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    assert!(db.last_txn_report().is_none(), "no run yet");
    db.run(4, |t| {
        t.put(b"k", b"v");
        Ok(())
    })
    .unwrap();
    let report = db.last_txn_report().expect("run stores a report");
    assert_eq!(report.attempts, 1);
    assert_eq!(report.last_abort, None);
}

#[test]
fn retried_conflict_reports_attempts_and_last_reason() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let mut t = db.begin();
    t.put(b"k", b"seed");
    t.commit().unwrap();

    // First attempt: read `k`, then let a rival write it and commit before
    // we do — a guaranteed read-write conflict. Second attempt: no rival,
    // so the retry commits.
    let sabotaged = AtomicBool::new(false);
    db.run(4, |t| {
        let _ = t.get(b"k");
        if !sabotaged.swap(true, Ordering::Relaxed) {
            let mut rival = db.begin();
            rival.put(b"k", b"rival");
            rival.commit().unwrap();
        }
        t.put(b"other", b"v");
        Ok(())
    })
    .unwrap();

    let report = db.last_txn_report().expect("run stores a report");
    assert_eq!(report.attempts, 2, "one conflict, one clean retry");
    assert!(
        matches!(
            report.last_abort,
            Some(AbortReason::ReadWriteConflict { .. })
        ),
        "the intermediate reason survives the eventual commit: {report:?}"
    );

    // The failed attempt's journal stream carries the retry marker right
    // after its abort.
    let journal = db.journal().expect("journal on by default");
    let events = journal.snapshot();
    let retry_at = events
        .iter()
        .position(|e| matches!(e.data, EventData::Retry { attempt: 1 }))
        .expect("retry event journaled");
    let victim = events[retry_at].txn;
    assert!(
        events[..retry_at]
            .iter()
            .any(|e| e.txn == victim && matches!(e.data, EventData::Abort(_))),
        "the retry marker follows the attempt's abort event"
    );
}

/// A pivot abort is a conflict like any other to the retry loop, and its
/// reason — naming the partner, not the victim — survives in the report.
#[test]
fn retried_pivot_abort_reports_the_dangerous_structure() {
    let db = Db::open(DbOptions::new(IsolationLevel::SerializableSnapshot));
    // First attempt: read x and write y while a rival reads y and writes x
    // and commits first — crossed rw-antidependencies, this attempt is the
    // pivot. Second attempt: no rival.
    let sabotaged = AtomicBool::new(false);
    let mut rival_commit = None;
    db.run(4, |t| {
        let _ = t.get(b"x");
        if !sabotaged.swap(true, Ordering::Relaxed) {
            let mut rival = db.begin();
            let _ = rival.get(b"y");
            rival.put(b"x", b"rival");
            rival_commit = Some(rival.commit().unwrap());
        }
        t.put(b"y", b"v");
        Ok(())
    })
    .unwrap();

    let report = db.last_txn_report().expect("run stores a report");
    assert_eq!(report.attempts, 2, "one pivot abort, one clean retry");
    assert_eq!(
        report.last_abort,
        Some(AbortReason::DangerousStructure {
            in_commit_ts: rival_commit,
            out_commit_ts: rival_commit,
        })
    );
    assert_eq!(db.stats().oracle.pivot_aborts, 1);
}

#[test]
fn exhausted_retries_report_the_final_reason() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let mut t = db.begin();
    t.put(b"k", b"seed");
    t.commit().unwrap();

    // Zero retries and a rival on every attempt: `run` must fail and the
    // report must carry the terminal reason with a single attempt.
    let err = db
        .run(0, |t| {
            let _ = t.get(b"k");
            let mut rival = db.begin();
            rival.put(b"k", b"rival");
            rival.commit().unwrap();
            t.put(b"other", b"v");
            Ok(())
        })
        .expect_err("no retries allowed");
    assert!(matches!(err, Error::Aborted(_)));
    let report = db.last_txn_report().expect("run stores a report");
    assert_eq!(report.attempts, 1);
    assert!(matches!(
        report.last_abort,
        Some(AbortReason::ReadWriteConflict { .. })
    ));
}

#[test]
fn body_error_reports_without_an_abort_reason() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let err = db
        .run(4, |t| -> wsi_store::Result<()> {
            t.put(b"k", b"v");
            Err(Error::TransactionFinished)
        })
        .expect_err("body error propagates");
    assert!(matches!(err, Error::TransactionFinished));
    let report = db.last_txn_report().expect("run stores a report");
    assert_eq!(report.attempts, 1);
    assert_eq!(report.last_abort, None);
}
