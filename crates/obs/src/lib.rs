//! Observability substrate for the `writesnap` workspace.
//!
//! The paper's evaluation (§6.3, Appendix A) rests on knowing *where*
//! commit-path time goes: how many `lastCommit` items each conflict check
//! loads (WSI reads ≈ 2× SI's), how many commits share each WAL flush (the
//! batching factor), and what fraction of reads the row cache absorbs.
//! This crate is the shared measurement layer every runtime crate reports
//! through:
//!
//! * [`Counter`] / [`Gauge`] — atomic scalars. Counters are sharded across
//!   cache-line-padded cells indexed by a per-thread slot, so concurrent
//!   increments from the commit path never bounce one cache line; reads
//!   aggregate the shards.
//! * [`Histogram`] — fixed-bucket log₂-scale latency histogram: zero
//!   allocation on the hot path, per-thread sharding, lock-free recording.
//!   [`HistogramSnapshot`] supports merge (associative, commutative) and
//!   interpolated quantiles.
//! * [`ExactHistogram`] — the exact-percentile variant (samples kept in
//!   full) for the deterministic simulator, sharing the same percentile
//!   conventions so simulator figures and live metrics agree on definitions.
//! * [`Registry`] — a name → metric map. Registration takes a lock once at
//!   setup; recording touches only the `Arc`'d atomics.
//! * [`Journal`] — the flight recorder: an always-on, lock-free ring of
//!   structured lifecycle events (begin, per-row conflict-check verdicts,
//!   WAL flush, publish, GC and reclamation, and aborts with culprit
//!   attribution), with [`Journal::explain_abort`] forensics.
//! * [`Snapshot`] — point-in-time exposition: [`Snapshot::render_prometheus`]
//!   (text format, parseable back via [`Snapshot::parse_prometheus`]).
//!
//! # Example
//!
//! ```
//! use wsi_obs::Registry;
//!
//! let registry = Registry::new();
//! let commits = registry.counter("commits_total");
//! let latency = registry.histogram("commit_us");
//!
//! commits.inc();
//! latency.record(180);
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["commits_total"], 1);
//! let text = snap.render_prometheus();
//! let parsed = wsi_obs::Snapshot::parse_prometheus(&text).unwrap();
//! assert_eq!(parsed, snap);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod expo;
mod hist;
mod journal;
mod metric;
mod registry;

pub use expo::{ParseError, Snapshot};
pub use hist::{ExactHistogram, Histogram, HistogramSnapshot, BUCKETS};
pub use journal::{AbortExplanation, Cause, Event, EventData, Journal};
pub use metric::{Counter, Gauge};
pub use registry::Registry;
