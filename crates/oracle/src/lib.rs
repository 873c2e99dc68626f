//! The simulated status oracle server: conflict decisions, the WAL's batch
//! timing and the saturation cost model.
//!
//! The lock-free scheme centralizes conflict detection in one server: "a
//! single server, i.e., the status oracle, receives the commit requests
//! accompanied by the set of the identifiers of modified rows" (§2.2) — and,
//! under write-snapshot isolation, the read rows as well (§5). This crate
//! wraps the pure [`wsi_core::StatusOracleCore`] state machine with the
//! costs the paper's deployment adds. It charges for them in virtual time
//! and keeps neither a commit table nor a log:
//!
//! * an **integrated timestamp oracle** that reserves timestamp batches
//!   through the WAL so start requests never pay a persistence round trip
//!   (§6.2: start-timestamp latency 0.17 ms vs 4.1 ms for commits);
//! * **write-ahead logging** of every commit/abort with the paper's batch
//!   triggers — 1 KB of data or 5 ms since the last trigger (Appendix A); a
//!   commit is acknowledged only once its batch's quorum write completes.
//!   A decision adds only its record's size to the batch;
//! * a **CPU cost model**: the conflict check
//!   runs in a critical section (§6.3), and "the running time of the
//!   critical section is slightly higher with write-snapshot isolation since
//!   it requires loading as twice memory items as with snapshot isolation" —
//!   which is why WSI saturates at ≈92 K TPS where SI reaches ≈104 K
//!   (Figure 5). The model charges a base cost per request plus a per-item
//!   cost for every `lastCommit` load: `|R_w|` items under SI, `|R_r| +
//!   |R_w|` under WSI.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod config;
mod server;

pub use config::{BatchPolicy, OracleConfig};
pub use server::{CommitResponse, FlushResult, OracleServer, StartResponse};
