//! Property tests of the simulated status-oracle server: batching
//! invariants, timing causality, and decision consistency with the pure
//! core state machine.

use proptest::prelude::*;
use wsi_core::{CommitRequest, IsolationLevel, RowId, StatusOracleCore, Timestamp};
use wsi_oracle::{OracleConfig, OracleServer};
use wsi_sim::SimTime;

/// A workload item: arrival gap (µs) and row sets.
type Item = (u64, Vec<u64>, Vec<u64>);

fn items() -> impl Strategy<Value = Vec<Item>> {
    prop::collection::vec(
        (
            0u64..20_000,
            prop::collection::vec(0u64..50, 0..5),
            prop::collection::vec(0u64..50, 0..5),
        ),
        1..60,
    )
}

fn rows(ids: &[u64]) -> Vec<RowId> {
    ids.iter().map(|&i| RowId(i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every write-transaction decision is eventually carried by exactly one
    /// flush, flush ready-times are causal (≥ the flush instant), and no
    /// decision is lost or duplicated.
    #[test]
    fn every_decision_flushes_exactly_once(schedule in items()) {
        let mut oracle = OracleServer::new(OracleConfig::paper_default(
            IsolationLevel::WriteSnapshot,
        ));
        let mut now = SimTime::ZERO;
        let mut expected: Vec<Timestamp> = Vec::new();
        let mut delivered: Vec<Timestamp> = Vec::new();
        for (gap, reads, writes) in &schedule {
            now += SimTime(*gap);
            let start = oracle.handle_start(now);
            let resp = oracle.handle_commit(
                now,
                CommitRequest::new(start.ts, rows(reads), rows(writes)),
            );
            if writes.is_empty() {
                // Read-only: immediate, never in a flush.
                prop_assert_eq!(resp.ready, Some(resp.cpu_done));
                continue;
            }
            expected.push(start.ts);
            prop_assert!(resp.cpu_done >= now);
            if let Some(flush) = resp.flush {
                prop_assert!(flush.ready >= resp.cpu_done);
                delivered.extend(flush.decisions.iter().map(|&(ts, _)| ts));
            }
        }
        // Drain the tail via the deadline path.
        while let Some(deadline) = oracle.next_flush_deadline() {
            let at = deadline.max(now);
            let flush = oracle.flush(at);
            delivered.extend(flush.decisions.iter().map(|&(ts, _)| ts));
            if flush.decisions.is_empty() {
                break;
            }
            now = at;
        }
        let mut expected_sorted = expected.clone();
        expected_sorted.sort_unstable();
        let mut delivered_sorted = delivered.clone();
        delivered_sorted.sort_unstable();
        prop_assert_eq!(expected_sorted, delivered_sorted);
    }

    /// The server's commit decisions match the pure core state machine fed
    /// the same request sequence — timing must never change semantics.
    #[test]
    fn server_decisions_match_pure_core(schedule in items()) {
        let mut server = OracleServer::new(OracleConfig::paper_default(
            IsolationLevel::WriteSnapshot,
        ));
        let mut core = StatusOracleCore::unbounded(IsolationLevel::WriteSnapshot);
        let mut now = SimTime::ZERO;
        for (gap, reads, writes) in &schedule {
            now += SimTime(*gap);
            let s_ts = server.handle_start(now).ts;
            let c_ts = core.begin();
            prop_assert_eq!(s_ts, c_ts, "timestamp streams must agree");
            let s_out = server
                .handle_commit(now, CommitRequest::new(s_ts, rows(reads), rows(writes)))
                .outcome;
            let c_out = core.commit(CommitRequest::new(c_ts, rows(reads), rows(writes)));
            prop_assert_eq!(s_out.is_committed(), c_out.is_committed());
        }
    }
}
