//! `writesnap` — write-snapshot isolation in Rust.
//!
//! A production-quality reproduction of *A Critique of Snapshot Isolation*
//! (Gómez Ferro & Yabandeh, EuroSys 2012): an embedded multi-version
//! transactional key-value store with pluggable isolation (snapshot isolation
//! or the serializable write-snapshot isolation), plus a deterministic
//! cluster simulation that regenerates every figure of the paper's
//! evaluation.
//!
//! This facade crate re-exports the workspace crates under stable paths:
//!
//! * [`core`] — timestamps, conflict-detection algorithms, transaction fates.
//! * [`store`] — the embedded transactional store (start here).
//! * [`history`] — histories, anomalies, serializability checking.
//! * [`sim`] — the discrete-event simulation kernel.
//! * [`wal`] — the BookKeeper-like replicated write-ahead log.
//! * [`kvstore`] — the timing model of HBase-like region servers.
//! * [`obs`] — lock-free metrics, exposition, and transaction tracing.
//! * [`oracle`] — the status-oracle server model.
//! * [`workload`] — the transactional YCSB-like workload generator.
//! * [`cluster`] — the full-cluster simulation and experiment runner.
//! * [`dst`] — the deterministic fault-injection stress harness.
//!
//! # Quickstart
//!
//! ```
//! use writesnap::core::IsolationLevel;
//! use writesnap::store::{Db, DbOptions};
//!
//! let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
//! let mut txn = db.begin();
//! txn.put(b"hello", b"world");
//! txn.commit().expect("no concurrent writers");
//!
//! let mut reader = db.begin();
//! assert_eq!(reader.get(b"hello").as_deref(), Some(&b"world"[..]));
//! ```

pub use wsi_cluster as cluster;
pub use wsi_core as core;
pub use wsi_dst as dst;
pub use wsi_history as history;
pub use wsi_kvstore as kvstore;
pub use wsi_obs as obs;
pub use wsi_oracle as oracle;
pub use wsi_sim as sim;
pub use wsi_store as store;
pub use wsi_wal as wal;
pub use wsi_workload as workload;
