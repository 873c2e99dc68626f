//! One isolation check for recorded executions, whatever produced them.
//!
//! A recorded execution is a [`History`] plus, for every committed
//! transaction's first read of each item, the writer whose version the
//! reader actually observed. [`check`] holds it to the claims an isolation
//! level makes, one named [`Clause`] at a time:
//!
//! * **SnapshotRead** (every level): each observed first read equals the
//!   version snapshot semantics prescribe ([`dsg::reads_from`]) — the latest
//!   version committed before the reader started, or its own earlier write.
//! * **Serializable** (WSI and SSI): the direct serialization graph is
//!   acyclic.
//!
//! The deterministic simulation harness and the real-thread stress herds
//! feed the same function, so a clause means the same thing in both.

use std::fmt;

use wsi_core::IsolationLevel;

use crate::dsg::{self, ReadsFrom};
use crate::ops::{History, TxnId};

/// A claim [`check`] holds an execution to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clause {
    /// Every first read observes the snapshot its transaction started on.
    SnapshotRead,
    /// The committed transactions' dependency graph has no cycle.
    Serializable,
}

/// A clause an execution broke, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The clause that failed.
    pub clause: Clause,
    /// The offending read or the dependency cycle, in words.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} violated: {}", self.clause, self.detail)
    }
}

impl std::error::Error for Violation {}

/// Checks a recorded execution against the clauses `level` claims.
///
/// `observed` maps each committed transaction's first read of an item to
/// the writer it saw (`None` = the initial version); extra entries, such as
/// reads of aborted transactions, are ignored.
///
/// # Errors
///
/// The first [`Violation`]: a **SnapshotRead** naming the transaction, the
/// item, and the observed and expected writers; or, at a serializable
/// level, a **Serializable** carrying [`dsg::explain_cycle`]'s text.
///
/// # Example
///
/// ```
/// use wsi_core::IsolationLevel;
/// use wsi_history::{check, dsg, examples, Clause};
///
/// // Write skew, read exactly as snapshot semantics prescribe.
/// let h2 = examples::h2();
/// let observed = dsg::reads_from(&h2);
/// assert!(check(&h2, &observed, IsolationLevel::Snapshot).is_ok());
/// let err = check(&h2, &observed, IsolationLevel::WriteSnapshot).unwrap_err();
/// assert_eq!(err.clause, Clause::Serializable);
/// ```
pub fn check(
    history: &History,
    observed: &ReadsFrom,
    level: IsolationLevel,
) -> Result<(), Violation> {
    for ((txn, item), want) in dsg::reads_from(history) {
        let got = observed.get(&(txn, item.clone()));
        if got != Some(&want) {
            let got = got.map_or_else(|| "nothing recorded".to_string(), writer);
            return Err(Violation {
                clause: Clause::SnapshotRead,
                detail: format!(
                    "{txn} first read of {item} observed {got}, snapshot semantics expect {}",
                    writer(&want)
                ),
            });
        }
    }
    if level.is_serializable() {
        if let Some(cycle) = dsg::explain_cycle(history) {
            return Err(Violation {
                clause: Clause::Serializable,
                detail: cycle,
            });
        }
    }
    Ok(())
}

fn writer(w: &Option<TxnId>) -> String {
    match w {
        Some(t) => t.to_string(),
        None => "the initial version".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use IsolationLevel::{SerializableSnapshot, Snapshot, WriteSnapshot};

    #[test]
    fn snapshot_reads_pass_and_only_serializable_levels_reject_cycles() {
        for (n, h) in examples::all() {
            let observed = dsg::reads_from(&h);
            assert_eq!(check(&h, &observed, Snapshot), Ok(()), "H{n}");
            for level in [WriteSnapshot, SerializableSnapshot] {
                let verdict = check(&h, &observed, level).map_err(|v| v.clause);
                let want = if dsg::is_serializable(&h) {
                    Ok(())
                } else {
                    Err(Clause::Serializable)
                };
                assert_eq!(verdict, want, "H{n} under {level:?}");
            }
        }
    }

    #[test]
    fn a_read_of_a_later_commit_breaks_snapshot_read() {
        // txn2 commits x after txn1 started; txn1 claims to have seen it.
        let h: History = "r1[y] w2[x] c2 r1[x] c1".parse().unwrap();
        let mut observed = dsg::reads_from(&h);
        observed.insert((TxnId(1), "x".to_string()), Some(TxnId(2)));
        let v = check(&h, &observed, Snapshot).unwrap_err();
        assert_eq!(v.clause, Clause::SnapshotRead);
        assert!(v.to_string().starts_with("SnapshotRead violated: "), "{v}");
        assert!(v.detail.contains("expect the initial version"), "{v}");
    }

    #[test]
    fn a_missing_observation_is_a_violation() {
        let h: History = "r1[x] c1".parse().unwrap();
        let v = check(&h, &ReadsFrom::new(), Snapshot).unwrap_err();
        assert_eq!(v.clause, Clause::SnapshotRead);
        assert!(v.detail.contains("nothing recorded"), "{v}");
    }
}
