//! The run oracles: isolation and reconciliation.
//!
//! A deterministic run produces three independent accounts of what
//! happened — the clients' observed history, the engine's counters, and
//! the decoded write-ahead log. This module cross-checks them:
//!
//! 1. **Isolation**: [`wsi_history::check`] at the engine's level — its
//!    SnapshotRead clause (every committed transaction's first read of each
//!    item observes exactly the writer snapshot semantics prescribe; values
//!    encode their writer's transaction id, so the observed writer is
//!    recoverable from the bytes the client actually saw — the clause the
//!    planted-bug test trips) and, for WSI and SSI, its Serializable clause
//!    (an acyclic DSG). SI makes no serializability claim; the test suite
//!    separately demonstrates that the corpus does catch SI admitting write
//!    skew.
//! 2. **Reconciliation**: begins equal commits plus aborts plus overturned
//!    commits (a quorum-loss overturn is a third fate: neither a commit nor
//!    a counted abort, found as a commit record paired with a compensating
//!    abort record); WAL commit and abort records match the oracle's
//!    decisions; the history's acknowledged write commits equal the log's
//!    effective (non-overturned) commit records; and the arena's
//!    reclamation accounting stays exact (`retired == freed + limbo`).
//!
//! Every violation panics with the failing identity and the run's
//! copy-pasteable repro command.

use std::collections::BTreeSet;

use bytes::Bytes;
use wsi_store::{decode_record, LogSuffix, StoreRecord};

use crate::harness::{RunConfig, RunReport};

/// Counts of decoded WAL records (timestamp reservations are ignored): the
/// retained records plus the newest checkpoint's census of the records
/// truncated behind it.
pub use wsi_store::WalCensus;

/// The start-timestamp sets behind a census, for limbo resolution.
pub(crate) struct RecordSets {
    /// Start timestamps with a retained `Commit` record.
    pub(crate) committed: BTreeSet<u64>,
    /// Start timestamps with a retained `Abort` record.
    pub(crate) aborted: BTreeSet<u64>,
}

/// Decodes every recovered payload, panicking (with the repro command) on
/// a record the store cannot parse — the harness never tears records, so
/// an undecodable one is a bug.
pub(crate) fn decode_all(payloads: &[Bytes], repro: &str) -> Vec<StoreRecord> {
    payloads
        .iter()
        .map(|p| {
            decode_record(p)
                .unwrap_or_else(|e| panic!("undecodable WAL record: {e}\n  reproduce: {repro}"))
        })
        .collect()
}

/// The census of a log whose first record has sequence number `base`:
/// the newest checkpoint's, plus the records from its cut on. The census
/// is counted from the records a cut removes, so a commit that was never
/// appended, or appended twice, still shows. Panics (with the repro
/// command) on a log truncated past its newest checkpoint.
pub(crate) fn census(base: u64, records: Vec<StoreRecord>, repro: &str) -> (WalCensus, RecordSets) {
    let log = LogSuffix::new(base, records)
        .unwrap_or_else(|e| panic!("unrecoverable WAL: {e}\n  reproduce: {repro}"));
    let mut committed = BTreeSet::new();
    let mut aborted = BTreeSet::new();
    for rec in &log.records {
        match rec {
            StoreRecord::Commit { start_ts, .. } => {
                committed.insert(start_ts.raw());
            }
            StoreRecord::Abort { start_ts } => {
                aborted.insert(start_ts.raw());
            }
            StoreRecord::TsReserve { .. } | StoreRecord::Checkpoint(_) => {}
        }
    }
    (log.census(), RecordSets { committed, aborted })
}

fn check_eq(got: u64, want: u64, what: &str, repro: &str) {
    if got != want {
        panic!("reconciliation violation: {what}: {got} != {want}\n  reproduce: {repro}");
    }
}

/// Runs all oracles over a finished run, panicking on any violation.
///
/// Every violation message carries the repro command *and* the tail of the
/// engine's flight-recorder journal — the last causal events before the
/// run ended, which is usually enough to see the decision that diverged
/// without replaying the seed at all.
pub fn verify(report: &RunReport, config: &RunConfig) {
    const JOURNAL_TAIL: usize = 16;
    let repro = {
        let tail = report.journal_tail(JOURNAL_TAIL);
        if tail.is_empty() {
            config.repro()
        } else {
            format!(
                "{}\n  journal tail (last {} of {} events):\n{tail}",
                config.repro(),
                report.journal.len().min(JOURNAL_TAIL),
                report.journal.len() as u64 + report.journal_dropped,
            )
        }
    };

    // 1. Isolation: snapshot reads, and serializability where the engine
    // claims it.
    let level = config.level;
    if let Err(violation) = wsi_history::check(&report.history, &report.observed, level) {
        panic!(
            "isolation violation under {}: {violation}\n  reproduce: {repro}",
            level.short_name(),
        );
    }

    // 2. Counters vs WAL, over the final engine incarnation.
    let d = &report.delta;
    let w = &report.delta_census;
    // Db decides the commit before the flush; an overturn is a third fate,
    // reported in neither `commits` (net of overturns) nor any abort
    // counter. The WAL pairing count supplies it: each overturn is one
    // commit record plus one compensating abort record.
    check_eq(
        d.begins,
        d.commits + d.read_only_commits + d.total_aborts + w.overturned,
        "begins == commits + read-only commits + aborts + overturned",
        &repro,
    );
    check_eq(
        w.commits,
        d.commits + w.overturned,
        "WAL commit records == decided commits",
        &repro,
    );
    check_eq(
        w.aborts,
        (d.total_aborts - d.client_aborts) + w.overturned,
        "WAL abort records == decided aborts + overturned commits",
        &repro,
    );

    // 3. History vs the whole log: what clients were told matches what the
    // log effectively holds, across every incarnation. Read-only commits
    // never touch the WAL; resurrected commits (acknowledged only by the
    // crash resolution) have effective records by construction.
    let acknowledged_write_commits = report
        .history
        .committed()
        .into_iter()
        .filter(|t| !report.history.is_read_only(*t))
        .count() as u64;
    check_eq(
        acknowledged_write_commits,
        report.census.commits - report.census.overturned,
        "history write commits == effective WAL commit records",
        &repro,
    );

    // 4. Reclamation stays exact at the quiescent end of the run.
    let rec = &report.reclamation;
    check_eq(
        rec.retired,
        rec.freed + rec.limbo,
        "reclamation retired == freed + limbo",
        &repro,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use wsi_core::Timestamp;
    use wsi_store::encode_record;

    #[test]
    fn census_counts_and_pairs() {
        let records = vec![
            StoreRecord::Commit {
                start_ts: Timestamp(1),
                commit_ts: Timestamp(2),
                writes: vec![(Bytes::from_static(b"k"), None)],
            },
            StoreRecord::Commit {
                start_ts: Timestamp(3),
                commit_ts: Timestamp(4),
                writes: vec![],
            },
            StoreRecord::Abort {
                start_ts: Timestamp(3),
            },
            StoreRecord::Abort {
                start_ts: Timestamp(9),
            },
            StoreRecord::TsReserve {
                upto: Timestamp(64),
            },
        ];
        let (census, sets) = census(0, records, "n/a");
        assert_eq!(census.commits, 2);
        assert_eq!(census.aborts, 2);
        assert_eq!(census.overturned, 1);
        assert!(sets.committed.contains(&1));
        assert!(sets.aborted.contains(&9));
    }

    #[test]
    fn decode_all_roundtrips_encoded_records() {
        let rec = StoreRecord::Abort {
            start_ts: Timestamp(7),
        };
        let payloads = vec![encode_record(&rec)];
        let decoded = decode_all(&payloads, "n/a");
        assert_eq!(decoded.len(), 1);
        assert!(matches!(decoded[0], StoreRecord::Abort { start_ts } if start_ts == Timestamp(7)));
    }

    #[test]
    fn census_delta_is_componentwise() {
        let base = WalCensus {
            commits: 3,
            aborts: 1,
            overturned: 1,
        };
        let now = WalCensus {
            commits: 5,
            aborts: 4,
            overturned: 2,
        };
        assert_eq!(
            now.since(&base),
            WalCensus {
                commits: 2,
                aborts: 3,
                overturned: 1
            }
        );
    }
}
