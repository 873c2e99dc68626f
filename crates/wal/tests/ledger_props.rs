//! Property tests of the replicated ledger's durability contract:
//! **no acknowledged record is ever lost** while failures stay within the
//! `replicas - ack_quorum` budget, across arbitrary interleavings of
//! appends, flushes, bookie failures, and recoveries.

use bytes::Bytes;
use proptest::prelude::*;
use wsi_wal::{Ledger, LedgerConfig};

#[derive(Debug, Clone)]
enum Action {
    Append(u8),
    Flush,
    FailBookie(usize),
    RecoverBookie(usize),
}

fn action_strategy(replicas: usize) -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => any::<u8>().prop_map(Action::Append),
        2 => Just(Action::Flush),
        1 => (0..replicas).prop_map(Action::FailBookie),
        1 => (0..replicas).prop_map(Action::RecoverBookie),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever happens, every record whose flush was acknowledged is
    /// present in recovery output, in order, as long as the number of
    /// *currently failed* bookies stays within `replicas - ack_quorum`.
    #[test]
    fn acked_records_survive(
        actions in prop::collection::vec(action_strategy(3), 1..60),
    ) {
        let mut ledger = Ledger::open(LedgerConfig::default_replicated());
        let mut appended: Vec<u8> = Vec::new();
        let mut acked_upto: Option<u64> = None;
        let mut failed = [false; 3];
        let mut now = 0u64;

        for action in actions {
            now += 1;
            match action {
                Action::Append(v) => {
                    appended.push(v);
                    ledger.append(Bytes::from(vec![v]), now);
                }
                Action::Flush => {
                    if let Ok(seq) = ledger.flush(now) {
                        if !appended.is_empty() {
                            acked_upto = Some(seq);
                        }
                    }
                }
                Action::FailBookie(i) => {
                    // Keep within the failure budget: at most one down.
                    if !failed.iter().any(|&f| f) {
                        failed[i] = true;
                        ledger.fail_bookie(i);
                    }
                }
                Action::RecoverBookie(i) => {
                    if failed[i] {
                        failed[i] = false;
                        ledger.recover_bookie(i);
                    }
                }
            }
            // Invariant after every step: recovery yields at least the
            // acked prefix, byte-identical and in order.
            if let Some(upto) = acked_upto {
                let recovered = ledger.recover();
                prop_assert!(
                    recovered.len() as u64 > upto || recovered.len() as u64 == upto + 1,
                    "recovered {} records, acked through seq {}",
                    recovered.len(),
                    upto
                );
                for (i, rec) in recovered.iter().take(upto as usize + 1).enumerate() {
                    prop_assert_eq!(rec.as_ref(), &[appended[i]], "record {} corrupted", i);
                }
            }
        }
    }

    /// The durable watermark never regresses.
    #[test]
    fn durable_watermark_is_monotone(
        actions in prop::collection::vec(action_strategy(3), 1..60),
    ) {
        let mut ledger = Ledger::open(LedgerConfig::default_replicated());
        let mut last: Option<u64> = None;
        let mut now = 0u64;
        for action in actions {
            now += 1;
            match action {
                Action::Append(v) => {
                    ledger.append(Bytes::from(vec![v]), now);
                }
                Action::Flush => {
                    let _ = ledger.flush(now);
                }
                Action::FailBookie(i) => ledger.fail_bookie(i),
                Action::RecoverBookie(i) => ledger.recover_bookie(i),
            }
            let current = ledger.durable_upto();
            if let (Some(prev), Some(cur)) = (last, current) {
                prop_assert!(cur >= prev, "watermark went from {prev} to {cur}");
            }
            if current.is_some() {
                last = current;
            }
        }
    }

    /// Batch framing: any sequence of appends and flushes recovers exactly
    /// the appended payloads when nothing fails.
    #[test]
    fn failure_free_recovery_is_exact(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 0..40),
        flush_every in 1usize..7,
    ) {
        let mut ledger = Ledger::open(LedgerConfig::default_replicated());
        for (i, p) in payloads.iter().enumerate() {
            ledger.append(Bytes::from(p.clone()), i as u64);
            if i % flush_every == 0 {
                ledger.flush(i as u64).unwrap();
            }
        }
        ledger.flush(payloads.len() as u64).unwrap();
        let recovered = ledger.recover();
        prop_assert_eq!(recovered.len(), payloads.len());
        for (rec, expect) in recovered.iter().zip(&payloads) {
            prop_assert_eq!(rec.as_ref(), expect.as_slice());
        }
    }
}
