//! Core types and conflict-detection algorithms for snapshot isolation (SI)
//! and write-snapshot isolation (WSI).
//!
//! This crate is the heart of the `writesnap` workspace: a pure,
//! allocation-conscious implementation of the algorithms in *A Critique of
//! Snapshot Isolation* (Gómez Ferro & Yabandeh, EuroSys 2012):
//!
//! * **Algorithm 1** — lock-free snapshot isolation: a commit request carries
//!   the set of *modified* rows, which is checked for write-write conflicts
//!   against the `lastCommit` table.
//! * **Algorithm 2** — write-snapshot isolation: a commit request carries the
//!   sets of *read* and *modified* rows; the read set is checked for
//!   read-write conflicts, and the write set updates `lastCommit`.
//! * **Algorithm 3** — the memory-bounded variant: `lastCommit` keeps only
//!   the most recently committed rows and tracks `T_max`, the maximum commit
//!   timestamp ever evicted; a transaction older than `T_max` whose rows are
//!   no longer resident is pessimistically aborted.
//!
//! The same state machine, [`StatusOracleCore`], drives every isolation
//! level — SI and WSI differ only in *which* of the two row sets is checked
//! (writes for SI, reads for WSI), captured by [`IsolationLevel`], and
//! serializable snapshot isolation adds the dangerous-structure check of
//! [`ssi::SsiWindow`] to the SI check. Two layers build on it:
//!
//! * `wsi-store`, an embedded, thread-safe transactional multi-version
//!   store, keeps `lastCommit(r)` in each key's own entry and decides
//!   with this crate's per-row predicate ([`check_row_probe`]) under one
//!   decision lock; this state machine is its reference model;
//! * `wsi-oracle` wraps this state machine in a simulated server with WAL
//!   persistence and a CPU cost model to reproduce the paper's
//!   status-oracle experiments.
//!
//! # Example
//!
//! ```
//! use wsi_core::{IsolationLevel, StatusOracleCore, RowId, CommitRequest};
//!
//! let mut oracle = StatusOracleCore::unbounded(IsolationLevel::WriteSnapshot);
//!
//! let t1 = oracle.begin();
//! let t2 = oracle.begin();
//!
//! // Both transactions read row 1 and write row 1 (classic lost update).
//! let r1 = oracle.commit(CommitRequest::new(t1, vec![RowId(1)], vec![RowId(1)]));
//! assert!(r1.is_committed());
//!
//! // t2 read row 1 before t1 committed, so it must abort under WSI.
//! let r2 = oracle.commit(CommitRequest::new(t2, vec![RowId(1)], vec![RowId(1)]));
//! assert!(r2.is_aborted());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod error;
mod lastcommit;
mod oracle;
mod policy;
mod row;
pub mod ssi;
mod ts;

pub use error::{AbortReason, CommitOutcome, Error, Result, TxnStatus};
pub use lastcommit::{LastCommit, Probe};
pub use oracle::{check_row_probe, CommitRequest, OracleCounters, OracleStats, StatusOracleCore};
pub use policy::{
    rw_spatial_overlap, rw_temporal_overlap, spatial_overlap, temporal_overlap, IsolationLevel,
};
pub use row::{hash_row_key, RowId};
pub use ts::{SharedTimestampSource, Timestamp, TimestampSource};
