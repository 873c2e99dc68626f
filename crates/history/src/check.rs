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
//! * **FirstCommitterWins** (SI and SSI): no two committed transactions
//!   that overlap in time — each started before the other committed —
//!   wrote the same item. WSI claims no such thing: it admits concurrent
//!   blind writes (the paper's History 4).
//! * **Serializable** (WSI and SSI): the direct serialization graph is
//!   acyclic.
//!
//! The deterministic simulation harness and the real-thread stress herds
//! feed the same function, so a clause means the same thing in both.

use std::collections::BTreeSet;
use std::fmt;

use wsi_core::IsolationLevel;

use crate::dsg::{self, ReadsFrom};
use crate::ops::{History, TxnId};

/// A claim [`check`] holds an execution to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clause {
    /// Every first read observes the snapshot its transaction started on.
    SnapshotRead,
    /// No two overlapping committed transactions wrote the same item.
    FirstCommitterWins,
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
/// item, and the observed and expected writers; at SI and SSI, a
/// **FirstCommitterWins** naming two overlapping writers and their item;
/// or, at a serializable level, a **Serializable** carrying
/// [`dsg::explain_cycle`]'s text.
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
    if level != IsolationLevel::WriteSnapshot {
        if let Some(detail) = concurrent_writers(history) {
            return Err(Violation {
                clause: Clause::FirstCommitterWins,
                detail,
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

/// The first two committed transactions that overlap in time and wrote a
/// common item, in words.
fn concurrent_writers(history: &History) -> Option<String> {
    let writers: Vec<(TxnId, usize, usize, BTreeSet<String>)> = history
        .committed()
        .into_iter()
        .filter_map(|t| {
            let writes: BTreeSet<String> = history.write_set(t).into_iter().collect();
            let span = (history.start_pos(t)?, history.commit_pos(t)?);
            (!writes.is_empty()).then_some((t, span.0, span.1, writes))
        })
        .collect();
    for (n, (i, start_i, commit_i, writes_i)) in writers.iter().enumerate() {
        for (j, start_j, commit_j, writes_j) in &writers[n + 1..] {
            if start_i < commit_j && start_j < commit_i {
                if let Some(item) = writes_i.intersection(writes_j).next() {
                    return Some(format!("{i} and {j} overlap and both wrote {item}"));
                }
            }
        }
    }
    None
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
    fn each_level_rejects_only_what_it_claims_to_prevent() {
        for (n, h) in examples::all() {
            let observed = dsg::reads_from(&h);
            // H3 (lost update) and H4 (blind overwrite) let two concurrent
            // transactions both write x.
            let concurrent_writes = n == 3 || n == 4;
            for level in [Snapshot, WriteSnapshot, SerializableSnapshot] {
                let verdict = check(&h, &observed, level).map_err(|v| v.clause);
                let want = if concurrent_writes && level != WriteSnapshot {
                    Err(Clause::FirstCommitterWins)
                } else if level.is_serializable() && !dsg::is_serializable(&h) {
                    Err(Clause::Serializable)
                } else {
                    Ok(())
                };
                assert_eq!(verdict, want, "H{n} under {level:?}");
            }
        }
    }

    #[test]
    fn overlap_needs_each_to_start_before_the_other_commits() {
        let h: History = "r1[x] r2[y] w2[x] c2 w1[x] c1".parse().unwrap();
        let v = check(&h, &dsg::reads_from(&h), Snapshot).unwrap_err();
        assert_eq!(v.clause, Clause::FirstCommitterWins);
        assert_eq!(v.detail, "txn1 and txn2 overlap and both wrote x");
        // One commits before the other starts: a serial overwrite.
        let h: History = "w1[x] c1 w2[x] c2".parse().unwrap();
        assert_eq!(check(&h, &dsg::reads_from(&h), Snapshot), Ok(()));
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
