//! Transaction histories, anomaly detection, and serializability checking.
//!
//! Section 3 of the paper analyzes isolation levels through *histories*: "a
//! history represents the interleaved execution of transactions as a linear
//! ordering of their operations", written in the Berenson et al. notation —
//! `w1[x]` and `r1[x]` for a write/read by transaction 1 on item `x`, `c1`
//! and `a1` for its commit/abort. This crate makes those analyses
//! executable:
//!
//! * [`History`] — the notation, with a parser (`"r1[x] w2[y] c1 c2"`) and
//!   the paper's Histories 1–7 as constants;
//! * [`accept`] — replays a history against the *real* conflict-detection
//!   algorithms from `wsi-core` to decide whether snapshot isolation,
//!   write-snapshot isolation or serializable snapshot isolation admits it;
//! * [`dsg`] — Adya-style direct serialization graphs over snapshot-read
//!   semantics, with cycle detection: the ground truth for "is this history
//!   serializable?";
//! * [`serialize`] — the §4.2 `serial(h)` construction (shift write
//!   transactions to their commit point, read-only transactions to their
//!   start) and the equivalence check used in the paper's Theorem 1 proof;
//! * [`anomaly`] — detectors for the classic anomalies: dirty read, fuzzy
//!   read, lost update, write skew;
//! * [`check()`] — one isolation check for a recorded execution (a history
//!   plus the writer each read observed), with named clauses:
//!   **SnapshotRead** at every level, **FirstCommitterWins** at SI and
//!   SSI, **Serializable** at WSI and SSI. The
//!   deterministic simulation harness and the real-thread stress tests both
//!   run it;
//! * [`record`] — what a real-thread herd records per transaction, and the
//!   merge of every thread's records into one checkable history.
//!
//! # Example: the paper's write-skew history
//!
//! ```
//! use wsi_history::{examples, accept, dsg};
//! use wsi_core::IsolationLevel;
//!
//! let h2 = examples::h2(); // r1[x] r1[y] r2[x] r2[y] w1[x] w2[y] c1 c2
//! assert!(accept::accepts(&h2, IsolationLevel::Snapshot));       // SI allows it
//! assert!(!accept::accepts(&h2, IsolationLevel::WriteSnapshot)); // WSI refuses
//! assert!(!dsg::is_serializable(&h2));                           // and indeed…
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod accept;
pub mod anomaly;
mod check;
pub mod dsg;
pub mod examples;
pub mod gen;
mod ops;
pub mod record;
pub mod serialize;

pub use check::{check, Clause, Violation};
pub use ops::{History, Op, ParseError, TxnId};
