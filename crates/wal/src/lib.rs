//! A BookKeeper-like replicated write-ahead log.
//!
//! The paper persists every status-oracle state change through BookKeeper, "a
//! system to perform write-ahead logging efficiently and reliably: every
//! change into the memory of the status oracle that is related to a
//! transaction commit/abort is persisted in multiple remote storages"
//! (§6). Appendix A gives the write path this crate reproduces:
//!
//! * entries **buffer** until their owner, the embedded store (`wsi-store`),
//!   flushes them as one batch at every group-commit round;
//! * each batch is **replicated** to multiple storage replicas (*bookies*)
//!   and acknowledged once a **quorum** has it;
//! * after a crash, the log owner **recovers** the durable prefix from the
//!   surviving bookies and replays it;
//! * an owner that checkpoints its state may **truncate** the log behind
//!   the checkpoint ([`Ledger::truncate_before`]): the bookies drop the
//!   covered entries and recovery starts at the truncation base.
//!
//! [`Ledger::append`] and [`Ledger::flush`] take the caller's clock reading
//! and ignore it: when to flush is the owner's decision.
//!
//! # Example
//!
//! ```
//! use wsi_wal::{Ledger, LedgerConfig};
//!
//! let mut ledger = Ledger::open(LedgerConfig::default_replicated());
//!
//! let seq = ledger.append(b"commit txn 7".to_vec().into(), 0);
//! assert!(ledger.durable_upto().is_none()); // still buffered
//! ledger.flush(0).unwrap();
//! assert_eq!(ledger.durable_upto(), Some(seq));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod bookie;
mod ledger;

pub use bookie::{Bookie, BookieId};
pub use ledger::{Ledger, LedgerConfig, LedgerObs, LedgerStats, SeqNo, WalError};
