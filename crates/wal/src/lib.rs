//! A BookKeeper-like replicated write-ahead log.
//!
//! The paper persists every status-oracle state change through BookKeeper, "a
//! system to perform write-ahead logging efficiently and reliably: every
//! change into the memory of the status oracle that is related to a
//! transaction commit/abort is persisted in multiple remote storages"
//! (§6). Appendix A gives the write path this crate reproduces:
//!
//! * entries are **batched** — "the write of the batch to BookKeeper is
//!   triggered either by batch size, after 1 KB of data is accumulated, or by
//!   time, after 5 ms since the last trigger";
//! * each batch is **replicated** to multiple storage replicas (*bookies*)
//!   and acknowledged once a **quorum** has it;
//! * after a crash, the log owner **recovers** the durable prefix from the
//!   surviving bookies and replays it;
//! * an owner that checkpoints its state may **truncate** the log behind
//!   the checkpoint ([`Ledger::truncate_before`]): the bookies drop the
//!   covered entries and recovery starts at the truncation base.
//!
//! Time is injected: every time-sensitive call takes `now_us`, a microsecond
//! clock reading supplied by the caller. The embedded store passes wall-clock
//! micros; the discrete-event simulator passes virtual time. This keeps the
//! whole crate deterministic under test.
//!
//! # Example
//!
//! ```
//! use wsi_wal::{BatchPolicy, Ledger, LedgerConfig};
//!
//! let mut ledger = Ledger::open(LedgerConfig {
//!     replicas: 3,
//!     ack_quorum: 2,
//!     batch: BatchPolicy::paper_default(),
//!     flush_delay_us: 0,
//! });
//!
//! let seq = ledger.append(b"commit txn 7".to_vec().into(), 0);
//! assert!(ledger.durable_upto().is_none()); // still buffered
//! ledger.flush(0).unwrap();
//! assert_eq!(ledger.durable_upto(), Some(seq));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod batch;
mod bookie;
mod ledger;
mod record;

pub use batch::BatchPolicy;
pub use bookie::{Bookie, BookieId};
pub use ledger::{Ledger, LedgerConfig, LedgerObs, LedgerStats, SeqNo, WalError};
pub use record::{decode_records, encode_record, DecodeError, TxnLogRecord};
