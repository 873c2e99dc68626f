//! An HBase-like region-partitioned, multi-version key-value store model.
//!
//! The paper's prototypes run against HBase: "a scalable key-value store,
//! which supports multiple versions of data. It splits groups of consecutive
//! rows of a table into multiple regions, and each region is maintained by a
//! single data server (RegionServer in HBase terminology)" (§6). This crate
//! models exactly that shape for the cluster simulation, with the two things
//! the figures depend on:
//!
//! * **Functional multi-version storage** ([`RegionStore`]): `put` writes a
//!   version tagged with the writer's start timestamp; `get` resolves the
//!   §2.2 snapshot-read rule through a caller-supplied commit-lookup (the
//!   client-replicated commit table).
//! * **A latency model** ([`RegionServer`]): request handlers, an LRU block
//!   cache, and a disk path. The paper measured random reads at 38.8 ms
//!   (HDFS block loads) and writes at 1.13 ms (memstore append + WAL); the
//!   uniform-vs-zipfian throughput gap of Figures 6 vs 7 is a cache-hit-rate
//!   effect this model reproduces.
//!
//! Rows are `u64` identifiers (the YCSB key space); the stored values are
//! real bytes so the simulation moves actual data, not phantoms.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod cache;
mod region;
mod server;
mod table;

pub use cache::BlockCache;
pub use region::{DataCluster, RegionId, Routing};
pub use server::{ReadOutcome, RegionServer, ServerConfig};
pub use table::{RegionStore, VersionFate, VersionLookup};
