//! Recording real-thread executions as histories.
//!
//! A herd of threads driving a real store cannot hand [`crate::check()`] a
//! history directly: each thread sees only its own transactions. Each one
//! records an [`Attempt`] per transaction instead — its timestamps, the
//! keys it read with the writer each value was [`tag`]ged with, the keys it
//! wrote — and [`merge`] turns the attempts of every thread into one
//! history plus the reads-from relation the check compares it against.

use crate::dsg::ReadsFrom;
use crate::ops::{History, Op, TxnId};

/// One transaction of a herd, as its thread recorded it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attempt {
    /// The transaction's label in the merged history.
    pub txn: TxnId,
    /// The start timestamp (its snapshot).
    pub start_ts: u64,
    /// The commit timestamp (a read-only commit's is its start), or `None`
    /// if the attempt aborted.
    pub commit_ts: Option<u64>,
    /// Each key read, with the writer its value was tagged with.
    pub reads: Vec<(String, TxnId)>,
    /// Each key written.
    pub writes: Vec<String>,
}

/// A herd value: the number `n`, tagged with the transaction that wrote it
/// (`"{n}:{writer}"`).
pub fn tag(n: i64, writer: TxnId) -> String {
    format!("{n}:{}", writer.0)
}

/// Splits a [`tag`]ged value into its number and its writer.
///
/// # Panics
///
/// Panics if `value` is not a tagged value.
pub fn tagged(value: &[u8]) -> (i64, TxnId) {
    let (n, writer) = std::str::from_utf8(value)
        .ok()
        .and_then(|value| value.split_once(':'))
        .expect("a tagged herd value");
    (
        n.parse().expect("tagged number"),
        TxnId(writer.parse().expect("tagged writer")),
    )
}

/// Merges a herd's attempts into one history in timestamp order: each
/// transaction's reads and writes at its start timestamp, its commit at its
/// commit timestamp, an abort right after its operations. A store that
/// draws both timestamps from one counter, and whose snapshot sees exactly
/// the versions committed before its start, executed in this order. Returns
/// the history and the writer each read observed.
pub fn merge(attempts: &[Attempt]) -> (History, ReadsFrom) {
    let mut events: Vec<((u64, usize), Op)> = Vec::new();
    let mut observed = ReadsFrom::new();
    for a in attempts {
        let reads = a.reads.iter().map(|(key, _)| Op::Read(a.txn, key.clone()));
        let writes = a.writes.iter().map(|key| Op::Write(a.txn, key.clone()));
        let ops: Vec<Op> = reads.chain(writes).collect();
        let n = ops.len();
        events.extend(
            ops.into_iter()
                .enumerate()
                .map(|(i, op)| ((a.start_ts, i), op)),
        );
        events.push(match a.commit_ts {
            Some(commit_ts) => ((commit_ts, n), Op::Commit(a.txn)),
            None => ((a.start_ts, n), Op::Abort(a.txn)),
        });
        for (key, writer) in &a.reads {
            observed.insert((a.txn, key.clone()), Some(*writer));
        }
    }
    events.sort_by_key(|(at, _)| *at);
    (
        History::new(events.into_iter().map(|(_, op)| op).collect()),
        observed,
    )
}

#[cfg(test)]
mod tests {
    use wsi_core::IsolationLevel;

    use super::*;

    fn attempt(txn: u32, start_ts: u64, commit_ts: Option<u64>) -> Attempt {
        Attempt {
            txn: TxnId(txn),
            start_ts,
            commit_ts,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    #[test]
    fn tags_round_trip() {
        assert_eq!(tagged(tag(-3, TxnId(17)).as_bytes()), (-3, TxnId(17)));
    }

    #[test]
    fn merged_history_orders_by_timestamp_and_checks() {
        // t0 seeds x; t1 reads t0's x and overwrites it; t2 started before
        // t1 committed and reads t0's x.
        let mut seed = attempt(0, 1, Some(2));
        seed.writes.push("x".into());
        let mut writer = attempt(1, 3, Some(6));
        writer.reads.push(("x".into(), TxnId(0)));
        writer.writes.push("x".into());
        let mut reader = attempt(2, 4, Some(4));
        reader.reads.push(("x".into(), TxnId(0)));
        let mut attempts = vec![reader, writer, seed];
        let (history, observed) = merge(&attempts);
        assert_eq!(history.to_string(), "w0[x] c0 r1[x] w1[x] r2[x] c2 c1");
        assert_eq!(observed[&(TxnId(2), "x".into())], Some(TxnId(0)));
        for level in [
            IsolationLevel::Snapshot,
            IsolationLevel::WriteSnapshot,
            IsolationLevel::SerializableSnapshot,
        ] {
            assert_eq!(crate::check(&history, &observed, level), Ok(()));
        }
        // Had the reader seen t1's write, its snapshot would be broken.
        attempts[0].reads[0].1 = TxnId(1);
        let (history, observed) = merge(&attempts);
        assert!(crate::check(&history, &observed, IsolationLevel::Snapshot).is_err());
    }
}
