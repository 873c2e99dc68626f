//! A timing model of an HBase-like region-partitioned key-value store.
//!
//! The paper's prototypes run against HBase: "a scalable key-value store,
//! which supports multiple versions of data. It splits groups of consecutive
//! rows of a table into multiple regions, and each region is maintained by a
//! single data server (RegionServer in HBase terminology)" (§6). This crate
//! models exactly that shape for the cluster simulation, as time only: request
//! handlers, an LRU row cache and a disk path per [`RegionServer`]. The
//! paper measured random reads at 38.8 ms (HDFS block loads) and writes at
//! 1.13 ms (memstore append + WAL); the uniform-vs-zipfian throughput gap of
//! Figures 6 vs 7 is a cache-hit-rate effect this model reproduces.
//!
//! No figure depends on the stored values, so the model stores none: a read
//! or a write is charged its service time and changes only queues and the
//! cache. Rows are `u64` identifiers (the YCSB key space).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod cache;
mod region;
mod server;

pub use cache::RowCache;
pub use region::{DataCluster, RegionId, Routing};
pub use server::{ReadOutcome, RegionServer, ServerConfig};
