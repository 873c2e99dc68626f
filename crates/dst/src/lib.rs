//! Deterministic simulation testing (DST) for the writesnap store.
//!
//! The paper's correctness claims — write-snapshot isolation is
//! serializable (Theorem 1), commits are never acknowledged before the
//! replicated WAL holds them, overturned commits are never visible — are
//! easiest to break *between* subsystems: a WAL quorum lost mid-commit, a
//! crash replayed over a log that still carries the overturned record, a
//! reclamation sweep racing a long snapshot. This crate stresses exactly those
//! seams, deterministically:
//!
//! * a **seeded scheduler** drives a population of logical clients one
//!   operation at a time from a [`wsi_sim::SimRng`] stream, so a whole run
//!   is a pure function of one `u64` seed;
//! * a [`FaultPlan`] injects WAL bookie failures and recoveries, mid-run
//!   crash-and-recover cycles (drop the engine, replay the surviving log),
//!   and forced GC and reclamation sweeps at chosen steps;
//! * every run is checked by two oracles: [`wsi_history::check`], the
//!   isolation check the real-thread stress tests share (snapshot reads at
//!   every level; SI is allowed its write skew, WSI and SSI must stay
//!   acyclic), and a reconciliation pass proving the engine's
//!   counters, the decoded WAL, and the client-observed history all tell
//!   the same story.
//!
//! On any violation the harness panics with the seed and a copy-pasteable
//! repro command; re-running the seed replays the identical history,
//! byte for byte (see `tests/determinism.rs`).
//!
//! ```
//! use wsi_core::IsolationLevel;
//! use wsi_dst::{run, FaultPlan, RunConfig};
//!
//! let config = RunConfig::new(IsolationLevel::WriteSnapshot, 0xDECADE)
//!     .steps(200)
//!     .plan("quorum-loss", FaultPlan::quorum_loss(200));
//! // `run` panics, with a repro command, on any violation.
//! let report = run(&config);
//! assert!(wsi_history::dsg::is_serializable(&report.history));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod engine;
pub mod harness;
pub mod oracle;
pub mod plan;

pub use clock::VirtualClock;
pub use engine::{EngineCounters, LEVELS};
pub use harness::{run, RunConfig, RunReport};
pub use plan::{Fault, FaultPlan};
