//! An embedded, thread-safe, multi-version transactional key-value store
//! with pluggable isolation.
//!
//! This crate packages the paper's design — a multi-version data store plus
//! a centralized commit-time conflict check — as a library. Pick
//! the isolation level at open time:
//!
//! * [`wsi_core::IsolationLevel::Snapshot`] — classic snapshot isolation
//!   (write-write conflict detection, Algorithm 1). Fast, but admits write
//!   skew.
//! * [`wsi_core::IsolationLevel::WriteSnapshot`] — write-snapshot isolation
//!   (read-write conflict detection, Algorithm 2). **Serializable** at
//!   comparable cost; read-only transactions never abort.
//! * [`wsi_core::IsolationLevel::SerializableSnapshot`] — Cahill-style
//!   serializable SI, the paper's §7.1 comparator: snapshot isolation's
//!   write-write check plus dangerous-structure detection
//!   ([`wsi_core::ssi::SsiWindow`]). **Serializable**; admits some
//!   histories WSI refuses (History 6) and refuses some serializable ones
//!   (a pivot that is on no cycle); read-only transactions can abort.
//!
//! There are no row locks: writes buffer in the transaction until
//! [`Transaction::commit`], so a client that dies mid-transaction strands
//! nothing — §2.1's failure mode of lock-based SI cannot occur.
//!
//! # Quickstart
//!
//! ```
//! use wsi_core::IsolationLevel;
//! use wsi_store::{Db, DbOptions};
//!
//! let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
//!
//! // Writer.
//! let mut t = db.begin();
//! t.put(b"accounts/alice", b"100");
//! t.put(b"accounts/bob", b"100");
//! t.commit().unwrap();
//!
//! // Concurrent read-modify-write transactions: under write-snapshot
//! // isolation the loser of the race aborts instead of silently producing
//! // write skew.
//! let mut t1 = db.begin();
//! let mut t2 = db.begin();
//! let alice = t1.get(b"accounts/alice").unwrap();
//! let bob = t2.get(b"accounts/bob").unwrap();
//! t1.put(b"accounts/alice", &alice); // pretend we computed a new balance
//! t2.put(b"accounts/bob", &bob);
//! t1.commit().unwrap();
//! t2.commit().unwrap(); // disjoint rows: no conflict
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod arena;
mod db;
mod error;
mod mvcc;
mod obs;
mod pipeline;
mod record;
mod registry;
mod snapshot;
mod txn;

pub use db::{Db, DbOptions, DbStats, TxnReport, ESCALATE_AFTER};
pub use error::{Error, Result};
pub use mvcc::{GcStats, ReclamationStats, VersionStamps};
pub use record::{
    decode as decode_record, encode as encode_record, Checkpoint, CheckpointEntry, LogSuffix,
    StoreRecord, WalCensus,
};
pub use snapshot::Snapshot;
pub use txn::Transaction;
// The flight-recorder types, re-exported so embedders (and the
// deterministic simulator, which depends on this crate but not on wsi-obs
// directly) can consume `Db::journal` output without a separate dependency
// edge.
pub use wsi_obs::{AbortExplanation, Cause, Event, EventData, Journal};
