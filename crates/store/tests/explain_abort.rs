//! Abort forensics: `explain_abort` must name the culprit.
//!
//! The flight recorder's acceptance bar is that a single call after an
//! abort produces a causal timeline that *attributes* the abort — not just
//! "write-write conflict" but *which* committed transaction won the race,
//! joined from the victim's and the culprit's event streams. One scenario
//! per conflict class: first-committer-wins under SI, read-write
//! invalidation under WSI, and the dangerous-structure rule under SSI.

use wsi_core::{AbortReason, IsolationLevel};
use wsi_store::{AbortExplanation, Cause, Db, DbOptions, Error, EventData};

/// The timeline is in global causal order and contains only victim and
/// culprit events.
fn assert_causal(explanation: &AbortExplanation) {
    assert!(!explanation.timeline.is_empty(), "timeline never empty");
    let mut prev = None;
    for e in &explanation.timeline {
        if let Some(p) = prev {
            assert!(e.seqno > p, "timeline in seqno order");
        }
        prev = Some(e.seqno);
        assert!(
            e.txn == explanation.victim || explanation.culprits.contains(&e.txn),
            "timeline holds only victim/culprit events, got txn {}",
            e.txn
        );
    }
}

#[test]
fn ww_abort_under_si_names_the_first_committer() {
    let db = Db::open(DbOptions::new(IsolationLevel::Snapshot));
    let mut winner = db.begin();
    let mut loser = db.begin();
    let winner_start = winner.start_ts();
    let loser_start = loser.start_ts();
    winner.put(b"x", b"w");
    loser.put(b"x", b"l");
    let winner_commit = winner.commit().expect("first committer wins");
    let err = loser.commit().expect_err("second writer must abort");
    assert!(matches!(err, Error::Aborted(_)));

    let explanation = db
        .explain_abort(loser_start)
        .expect("abort event is in the journal");
    assert_eq!(explanation.victim, loser_start.raw());
    match explanation.cause {
        Cause::WriteWrite { committed_at, .. } => {
            assert_eq!(
                committed_at,
                winner_commit.raw(),
                "cause carries the winning commit timestamp"
            );
        }
        other => panic!("expected a write-write cause, got {other:?}"),
    }
    assert_eq!(
        explanation.culprits,
        vec![winner_start.raw()],
        "culprit resolved to the winner's start timestamp"
    );
    assert_causal(&explanation);
    // The joined timeline shows the race: the winner's commit and the
    // victim's abort, in that order.
    let commit_at = explanation
        .timeline
        .iter()
        .position(|e| e.txn == winner_start.raw() && matches!(e.data, EventData::Commit { .. }))
        .expect("winner's commit in the timeline");
    let abort_at = explanation
        .timeline
        .iter()
        .position(|e| e.txn == loser_start.raw() && matches!(e.data, EventData::Abort(_)))
        .expect("victim's abort in the timeline");
    assert!(commit_at < abort_at, "commit causally precedes the abort");
}

#[test]
fn rw_abort_under_wsi_names_the_invalidating_writer() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    // Classic write skew: both read {x, y}; one writes x, the other y.
    // Under SI both would commit; WSI aborts the second because its read
    // of x was invalidated by the first's commit.
    let mut t1 = db.begin();
    let mut t2 = db.begin();
    let t1_start = t1.start_ts();
    let t2_start = t2.start_ts();
    let _ = t1.get(b"x");
    let _ = t1.get(b"y");
    t1.put(b"x", b"1");
    let _ = t2.get(b"x");
    let _ = t2.get(b"y");
    t2.put(b"y", b"2");
    let t1_commit = t1.commit().expect("first committer wins");
    let err = t2.commit().expect_err("read of x was invalidated");
    assert!(matches!(err, Error::Aborted(_)));

    let explanation = db
        .explain_abort(t2_start)
        .expect("abort event is in the journal");
    assert_eq!(explanation.victim, t2_start.raw());
    match explanation.cause {
        Cause::ReadWrite { committed_at, .. } => {
            assert_eq!(committed_at, t1_commit.raw());
        }
        other => panic!("expected a read-write cause, got {other:?}"),
    }
    assert_eq!(explanation.culprits, vec![t1_start.raw()]);
    assert_causal(&explanation);
    // The culprit's conflicting commit is visible in the joined timeline,
    // as is the per-row verdict that doomed the victim.
    assert!(explanation
        .timeline
        .iter()
        .any(|e| e.txn == t1_start.raw() && matches!(e.data, EventData::Commit { .. })));
    assert!(
        explanation.timeline.iter().any(|e| e.txn == t2_start.raw()
            && matches!(
                e.data,
                EventData::CheckRow {
                    conflict: Some(ts),
                    ..
                } if ts == t1_commit.raw()
            )),
        "the failing row check names the culprit's commit timestamp"
    );
}

#[test]
fn ssi_pivot_abort_names_both_edge_partners() {
    let db = Db::open(DbOptions::new(IsolationLevel::SerializableSnapshot));
    // A pivot with two distinct partners: t0 reads y, which t1 overwrites
    // (t0 →rw t1, the in-edge); t2 overwrites x, which t1 read (t1 →rw t2,
    // the out-edge). t1 is refused although t0, t1, t2 is a serial order —
    // the pattern check's false positive.
    let mut t0 = db.begin();
    let mut t1 = db.begin();
    let mut t2 = db.begin();
    let (t0_start, t1_start, t2_start) = (t0.start_ts(), t1.start_ts(), t2.start_ts());
    let _ = t1.get(b"x");
    t2.put(b"x", b"t2");
    let t2_commit = t2.commit().expect("no committed partner yet");
    let _ = t0.get(b"y");
    t0.put(b"z", b"t0");
    let t0_commit = t0.commit().expect("disjoint from t2");
    t1.put(b"y", b"t1");
    let Err(Error::Aborted(reason)) = t1.commit() else {
        panic!("pivot of a dangerous structure must abort");
    };

    // The reason blames the partners, never the victim's own start.
    assert_eq!(
        reason,
        AbortReason::DangerousStructure {
            in_commit_ts: Some(t0_commit),
            out_commit_ts: Some(t2_commit),
        }
    );
    assert_eq!(
        reason.conflict_ts(),
        Some(t2_commit),
        "the out-edge partner"
    );
    assert!(reason.to_string().contains("dangerous structure"));

    let explanation = db
        .explain_abort(t1_start)
        .expect("abort event is in the journal");
    assert_eq!(explanation.victim, t1_start.raw());
    assert_eq!(
        explanation.cause,
        Cause::Pivot {
            in_commit_ts: t0_commit.raw(),
            out_commit_ts: t2_commit.raw(),
        }
    );
    let mut culprits = explanation.culprits.clone();
    culprits.sort_unstable();
    assert_eq!(culprits, vec![t0_start.raw(), t2_start.raw()]);
    assert_causal(&explanation);
    assert!(explanation.timeline.iter().any(|e| e.data
        == EventData::Commit {
            commit_ts: t2_commit.raw()
        }));
    assert!(explanation
        .timeline
        .iter()
        .any(|e| e.txn == t1_start.raw() && matches!(e.data, EventData::Abort(_))));

    // The human rendering names everything a first responder needs.
    let text = explanation.render();
    assert!(text.contains(&format!("txn {}", t1_start.raw())));
}

/// Rule 2: the victim is not the pivot — committing it would make an
/// already-committed transaction one. The abort names that transaction on
/// the one edge there is; the other is absent.
#[test]
fn ssi_rule_two_aborts_name_the_committed_pivot() {
    // A writer victim: v →rw u exists (u committed with an in-conflict);
    // t overwrites what u read, which would give u an out-conflict too.
    let db = Db::open(DbOptions::new(IsolationLevel::SerializableSnapshot));
    let mut v = db.begin();
    let mut u = db.begin();
    let mut t = db.begin();
    let (u_start, t_start) = (u.start_ts(), t.start_ts());
    let _ = u.get(b"b");
    u.put(b"a", b"u");
    let u_commit = u.commit().unwrap();
    let _ = v.get(b"a");
    v.put(b"c", b"v");
    v.commit().expect("one out-edge is not dangerous");
    t.put(b"b", b"t");
    let Err(Error::Aborted(reason)) = t.commit() else {
        panic!("u would become a pivot");
    };
    assert_eq!(
        reason,
        AbortReason::DangerousStructure {
            in_commit_ts: Some(u_commit),
            out_commit_ts: None,
        }
    );
    assert_eq!(reason.conflict_ts(), Some(u_commit));
    let explanation = db.explain_abort(t_start).expect("abort recorded");
    assert_eq!(explanation.culprits, vec![u_start.raw()]);

    // A read-only victim (Fekete's read-only anomaly): t2 →rw t1 exists; t3
    // read what t2 then overwrote, and would hand t2 its in-conflict. t3
    // never wrote, so its stream has no `Begin` — the abort event alone
    // must still name t2.
    let db = Db::open(DbOptions::new(IsolationLevel::SerializableSnapshot));
    let mut t2 = db.begin();
    let mut t1 = db.begin();
    let _ = t1.get(b"y");
    t1.put(b"y", b"t1");
    t1.commit().unwrap();
    let mut t3 = db.begin();
    let (t2_start, t3_start) = (t2.start_ts(), t3.start_ts());
    let _ = (t2.get(b"x"), t2.get(b"y"));
    t2.put(b"x", b"t2");
    let t2_commit = t2.commit().expect("one out-edge is not dangerous");
    let _ = (t3.get(b"x"), t3.get(b"y"));
    let Err(Error::Aborted(reason)) = t3.commit() else {
        panic!("t2 would become a pivot");
    };
    assert_eq!(reason.conflict_ts(), Some(t2_commit));
    let explanation = db.explain_abort(t3_start).expect("abort recorded");
    assert_eq!(
        explanation.cause,
        Cause::Pivot {
            in_commit_ts: 0,
            out_commit_ts: t2_commit.raw(),
        }
    );
    assert_eq!(explanation.culprits, vec![t2_start.raw()]);
    assert_causal(&explanation);
    assert!(!explanation
        .timeline
        .iter()
        .any(|e| e.txn == t3_start.raw() && e.data == EventData::Begin));
}
