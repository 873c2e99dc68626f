//! The full-cluster simulation: clients, data servers, status oracle, WAL.
//!
//! This crate wires every substrate into the deployment of §6 — transaction
//! clients, 25 region servers, and one status oracle persisting through a
//! BookKeeper-like log — as a deterministic discrete-event simulation, and
//! provides the experiment sweeps that regenerate every figure of the
//! paper's evaluation:
//!
//! | Experiment | Paper | Entry point |
//! |---|---|---|
//! | Per-operation latency breakdown | §6.2 | [`experiments::microbench`] |
//! | Status-oracle latency vs throughput | Fig. 5 | [`experiments::fig5`] |
//! | Uniform distribution performance | Fig. 6 | [`experiments::fig6`] |
//! | Zipfian performance / abort rate | Fig. 7 / 8 | [`experiments::fig7_fig8`] |
//! | ZipfianLatest performance / abort rate | Fig. 9 / 10 | [`experiments::fig9_fig10`] |
//!
//! The simulation models time, not data: it stores no row values, no commit
//! table and no log records. It charges for the commit table through
//! [`CommitInfo`] and for the log through the oracle's batch triggers.
//!
//! The isolation logic inside the simulation is the *real* `wsi-core` state
//! machine — abort rates are produced by actually running Algorithms 1–2
//! over the generated keys, not by a statistical model.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod config;
pub mod experiments;
mod runner;

pub use config::{ClusterConfig, CommitInfo};
pub use runner::{OpLatencySummary, RunResult, Runner};
