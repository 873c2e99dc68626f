//! Layer replays: each layer's stable public entry point, alone, on one
//! thread, fed the workload's own generated stream.
//!
//! A replay is the floor for the layer's share of a transaction: what the
//! layer costs with no other layer around it. The gap between a replay
//! and the layer's span in the traced run is what the composition costs
//! (cache misses on a real working set, contention, waiting).

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use wsi_core::{hash_row_key, CommitRequest, IsolationLevel, RowId, StatusOracleCore, Timestamp};
use wsi_sim::SimRng;
use wsi_store::{encode_record, EventData, Journal, StoreRecord};
use wsi_wal::{Ledger, LedgerConfig};
use wsi_workload::WorkloadGenerator;

use crate::inputs::{key_of, op_is_write, op_row, value_of, ClientInput, Workload};

/// Transactions of client 0's stream each replay consumes (fewer if the
/// stream is shorter).
const REPLAY_TXNS: usize = 20_000;
/// Records between ledger flushes in the WAL replay.
const FLUSH_EVERY: usize = 32;

/// Nanoseconds per unit of each replayed layer.
pub struct Replays {
    /// `StatusOracleCore::begin` + `commit` (Algorithm 2) per transaction.
    pub spec_decide_ns: f64,
    /// `encode_record` per commit record.
    pub encode_record_ns: f64,
    /// `Ledger::append`, with a `flush` every 32 records, per record.
    pub append_flush_ns: f64,
    /// `Journal::record` per event.
    pub journal_record_ns: f64,
    /// `WorkloadGenerator::next_txn` per transaction.
    pub next_txn_ns: f64,
}

fn per_unit(began: Instant, units: usize) -> f64 {
    began.elapsed().as_nanos() as f64 / units.max(1) as f64
}

/// Replays client 0's stream (`input`, generated from `seed`).
pub fn run(workload: &Workload, seed: u64, input: &ClientInput) -> Replays {
    let txns = input.txns().min(REPLAY_TXNS);
    let row_sets: Vec<(Vec<RowId>, Vec<RowId>)> = (0..txns)
        .map(|txn| {
            let ids = |write: bool| {
                input
                    .ops_of(txn)
                    .iter()
                    .filter(|&&op| op_is_write(op) == write)
                    .map(|&op| hash_row_key(&key_of(op_row(op))))
                    .collect::<Vec<_>>()
            };
            (ids(false), ids(true))
        })
        .collect();

    // Commit decisions: the paper's Algorithm 2 as the reference oracle
    // runs it, one request after another.
    let mut oracle = StatusOracleCore::unbounded(IsolationLevel::WriteSnapshot);
    let requests = row_sets.clone();
    let began = Instant::now();
    for (reads, writes) in requests {
        let start_ts = oracle.begin();
        black_box(oracle.commit(CommitRequest::new(start_ts, reads, writes)));
    }
    let spec_decide_ns = per_unit(began, txns);

    // Commit records of the stream's write transactions.
    let value = Bytes::copy_from_slice(&value_of(0));
    let records: Vec<StoreRecord> = (0..txns)
        .filter_map(|txn| {
            let writes: Vec<(Bytes, Option<Bytes>)> = input
                .ops_of(txn)
                .iter()
                .filter(|&&op| op_is_write(op))
                .map(|&op| {
                    (
                        Bytes::copy_from_slice(&key_of(op_row(op))),
                        Some(value.clone()),
                    )
                })
                .collect();
            (!writes.is_empty()).then(|| StoreRecord::Commit {
                start_ts: Timestamp(2 * txn as u64 + 1),
                commit_ts: Timestamp(2 * txn as u64 + 2),
                writes,
            })
        })
        .collect();
    let began = Instant::now();
    let encoded: Vec<Bytes> = records.iter().map(encode_record).collect();
    let encode_record_ns = per_unit(began, records.len());

    let mut ledger = Ledger::open(LedgerConfig::default_replicated());
    let began = Instant::now();
    for (i, payload) in encoded.into_iter().enumerate() {
        ledger.append(payload, i as u64);
        if (i + 1) % FLUSH_EVERY == 0 {
            ledger.flush(i as u64).expect("no bookie has failed");
        }
    }
    ledger.flush(0).expect("no bookie has failed");
    let append_flush_ns = per_unit(began, records.len());

    // The events a write transaction journals: begin, one verdict per
    // checked row, commit.
    let journal = Journal::new();
    let mut events = 0usize;
    let began = Instant::now();
    for (txn, (reads, _)) in row_sets.iter().enumerate() {
        let id = txn as u64 + 1;
        journal.record(id, EventData::Begin);
        for row in reads {
            journal.record(
                id,
                EventData::CheckRow {
                    row: row.raw(),
                    conflict: None,
                },
            );
        }
        journal.record(id, EventData::Commit { commit_ts: id });
        events += reads.len() + 2;
    }
    let journal_record_ns = per_unit(began, events);
    black_box(journal.recorded());

    let mut generator = WorkloadGenerator::new(workload.spec(), SimRng::new(seed).fork(1));
    let began = Instant::now();
    for _ in 0..txns {
        black_box(generator.next_txn());
    }
    let next_txn_ns = per_unit(began, txns);

    Replays {
        spec_decide_ns,
        encode_record_ns,
        append_flush_ns,
        journal_record_ns,
        next_txn_ns,
    }
}
